package chaos

import (
	"net"
	"os"
	"sync/atomic"
	"syscall"
	"time"
)

// DialFunc is the dial seam threaded through the shipper and the ctl
// client — net.Dialer.Dial, shaped.
type DialFunc func(network, addr string) (net.Conn, error)

// Dial wraps a dial function with the schedule's dial-refusal fault.
// A nil injector returns dial unchanged.
func (in *Injector) Dial(site string, dial DialFunc) DialFunc {
	if in == nil {
		return dial
	}
	st := in.site(site)
	return func(network, addr string) (net.Conn, error) {
		if in.fire(st, FaultDial) {
			return nil, &net.OpError{Op: "dial", Net: network, Err: syscall.ECONNREFUSED}
		}
		c, err := dial(network, addr)
		if err != nil {
			return nil, err
		}
		return in.conn(st, c), nil
	}
}

// WrapConn returns a function that wraps accepted connections at the
// named site with the schedule's connection faults. A nil injector
// returns the identity.
func (in *Injector) WrapConn(site string) func(net.Conn) net.Conn {
	if in == nil {
		return func(c net.Conn) net.Conn { return c }
	}
	st := in.site(site)
	return func(c net.Conn) net.Conn { return in.conn(st, c) }
}

// Listener wraps a listener so every accepted connection carries the
// schedule's connection faults. A nil injector returns ln unchanged.
func (in *Injector) Listener(ln net.Listener, site string) net.Listener {
	if in == nil {
		return ln
	}
	return &faultListener{Listener: ln, wrap: in.WrapConn(site)}
}

type faultListener struct {
	net.Listener
	wrap func(net.Conn) net.Conn
}

func (l *faultListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.wrap(c), nil
}

// conn wraps c with the injector's wire faults, sharing st's counters
// across every connection at the site so decisions stay a function of
// the site's operation index, not of which connection carried it.
func (in *Injector) conn(st *siteState, c net.Conn) net.Conn {
	return &faultConn{Conn: c, in: in, st: st}
}

// faultConn injects reset, stall, short-write and byte-corruption
// faults around a real net.Conn. Deadlines are recorded so stall
// faults can sleep just past them instead of hanging a test for the
// full production timeout — atomically, since a net.Conn lets another
// goroutine move a deadline under a blocked Read or Write.
type faultConn struct {
	net.Conn
	in *Injector
	st *siteState

	rdDeadline, wrDeadline atomic.Int64 // UnixNano; 0 = none
}

func unixNano(t time.Time) int64 {
	if t.IsZero() {
		return 0
	}
	return t.UnixNano()
}

func (c *faultConn) SetDeadline(t time.Time) error {
	c.rdDeadline.Store(unixNano(t))
	c.wrDeadline.Store(unixNano(t))
	return c.Conn.SetDeadline(t)
}

func (c *faultConn) SetReadDeadline(t time.Time) error {
	c.rdDeadline.Store(unixNano(t))
	return c.Conn.SetReadDeadline(t)
}

func (c *faultConn) SetWriteDeadline(t time.Time) error {
	c.wrDeadline.Store(unixNano(t))
	return c.Conn.SetWriteDeadline(t)
}

// stall sleeps up to the schedule's stall cap — or just past the
// recorded deadline if that is sooner — and reports the same timeout
// error a genuinely hung peer would produce.
func (c *faultConn) stall(deadline *atomic.Int64) error {
	d := c.in.spec.Stall
	if ns := deadline.Load(); ns != 0 {
		if until := time.Until(time.Unix(0, ns)) + 10*time.Millisecond; until < d {
			d = until
		}
	}
	if d > 0 {
		time.Sleep(d)
	}
	return &net.OpError{Op: "read", Net: "tcp", Err: os.ErrDeadlineExceeded}
}

func (c *faultConn) reset(op string) error {
	c.Conn.Close()
	return &net.OpError{Op: op, Net: "tcp", Err: syscall.ECONNRESET}
}

func (c *faultConn) Read(p []byte) (int, error) {
	if c.in.fire(c.st, FaultStallRead) {
		return 0, c.stall(&c.rdDeadline)
	}
	if c.in.fire(c.st, FaultReset) {
		return 0, c.reset("read")
	}
	return c.Conn.Read(p)
}

func (c *faultConn) Write(p []byte) (int, error) {
	if c.in.fire(c.st, FaultStallWrite) {
		return 0, c.stall(&c.wrDeadline)
	}
	if c.in.fire(c.st, FaultReset) {
		return 0, c.reset("write")
	}
	if len(p) > 1 && c.in.fire(c.st, FaultShortWrite) {
		n, err := c.Conn.Write(p[:len(p)/2])
		c.Conn.Close()
		if err != nil {
			return n, err
		}
		return n, &net.OpError{Op: "write", Net: "tcp", Err: syscall.ECONNRESET}
	}
	if len(p) > 0 && c.in.fire(c.st, FaultCorrupt) {
		q := make([]byte, len(p))
		copy(q, p)
		pos := c.in.rand(c.st, FaultCorrupt, len(q))
		bit := c.in.rand(c.st, FaultCorrupt, 8*len(q)) % 8
		q[pos] ^= 1 << bit
		// The wire reports success: corruption is silent at the sender,
		// and only the receiver's CRC can catch it.
		if _, err := c.Conn.Write(q); err != nil {
			return 0, err
		}
		return len(p), nil
	}
	return c.Conn.Write(p)
}
