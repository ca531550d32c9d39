// Package ctl is the chaosseam fixture for the ctl plane: the client
// dials only through its Dial seam, the server listens directly.
package ctl

import (
	"net"
	"os"
	"time"
)

// Client mirrors ctl.Client: Dial is the seam chaos wraps.
type Client struct {
	Addr    string
	Timeout time.Duration
	Dial    func(network, addr string) (net.Conn, error)
}

func (c *Client) connectDirect() (net.Conn, error) {
	return net.DialTimeout("tcp", c.Addr, c.Timeout) // want `direct net\.DialTimeout bypasses the Dial seam`
}

func (c *Client) dumpDirect(path string, body []byte) error {
	return os.WriteFile(path, body, 0o644) // want `direct os\.WriteFile bypasses chaos\.FS`
}

// connect is the real client's shape: the injected seam, or its
// default built from a net.Dialer value — construction, not a bypass.
func (c *Client) connect() (net.Conn, error) {
	dial := c.Dial
	if dial == nil {
		d := &net.Dialer{Timeout: c.Timeout}
		dial = d.Dial
	}
	return dial("tcp", c.Addr)
}

// serve binds the ctl socket. net.Listen stays exempt here for the
// reason it is in epochwire: the seam is per connection, and a faulted
// listener models a dead daemon, not a flaky link.
func serve(addr string) (net.Listener, error) {
	return net.Listen("tcp", addr)
}
