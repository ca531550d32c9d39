package ctl

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"strings"
	"time"
)

// Client speaks the protocol from the operator's side (one request per
// connection, `ok <n>` + n raw bytes back) with the timeout discipline
// an operator tool needs: the dial, the request write, and every read
// carry a deadline, so a hung or half-dead daemon yields a clear
// timeout error instead of hanging the terminal.
type Client struct {
	// Addr is the daemon's ctl address.
	Addr string
	// Timeout bounds the dial and each subsequent I/O step (default
	// 30s). Body reads refresh the deadline per chunk, so a large
	// snapshot on a slow link is fine as long as bytes keep arriving.
	Timeout time.Duration
	// Dial, when set, replaces the default TCP dialer — the chaos seam,
	// and the reason the stall test can exercise the deadlines.
	Dial func(network, addr string) (net.Conn, error)
}

func (c *Client) timeout() time.Duration {
	if c.Timeout > 0 {
		return c.Timeout
	}
	return 30 * time.Second
}

// trustFirst is the most of a declared reply length that is allocated
// before any of it has arrived: room for a national week at reference
// scale (~0.7 MB) in one allocation, and all a lying `ok <n>` header can
// cost.
const trustFirst = 768 << 10

// Request sends one command line and returns the whole reply body in
// memory — the right shape for status/metrics JSON and small views.
// The declared length is the peer's claim, not an allocation size: the
// buffer is pre-sized for at most trustFirst of it (plus the spare read
// room that keeps an exact fit from growing) and past that grows only as
// bytes actually arrive.
func (c *Client) Request(req string) ([]byte, error) {
	var body bytes.Buffer
	_, err := c.do(req, func(br *bufio.Reader, conn net.Conn, n int64) error {
		body.Grow(int(min(n, trustFirst)) + bytes.MinRead)
		return c.copyBody(&body, br, conn, n)
	})
	return body.Bytes(), err
}

// Stream sends one command line and copies the reply body to w —
// the right shape for snapshot fetches that should not be buffered.
// Returns the body length the daemon declared.
func (c *Client) Stream(req string, w io.Writer) (int64, error) {
	return c.do(req, func(br *bufio.Reader, conn net.Conn, n int64) error {
		return c.copyBody(w, br, conn, n)
	})
}

// copyBody copies the n declared body bytes to w, refreshing the
// deadline per chunk.
func (c *Client) copyBody(w io.Writer, br *bufio.Reader, conn net.Conn, n int64) error {
	for copied := int64(0); copied < n; {
		conn.SetDeadline(time.Now().Add(c.timeout()))
		m, err := io.CopyN(w, br, min(n-copied, replyChunk))
		copied += m
		if err != nil {
			return fmt.Errorf("ctl: reply truncated at %d of %d bytes: %w", copied, n, err)
		}
	}
	return nil
}

// do dials, sends req (newline appended if missing), parses the `ok
// <n>` header, and hands the body to read.
func (c *Client) do(req string, read func(br *bufio.Reader, conn net.Conn, n int64) error) (int64, error) {
	dial := c.Dial
	if dial == nil {
		d := &net.Dialer{Timeout: c.timeout()}
		dial = d.Dial
	}
	conn, err := dial("tcp", c.Addr)
	if err != nil {
		return 0, fmt.Errorf("ctl: dialing %s: %w", c.Addr, err)
	}
	defer conn.Close()
	if !strings.HasSuffix(req, "\n") {
		req += "\n"
	}
	conn.SetDeadline(time.Now().Add(c.timeout()))
	if _, err := io.WriteString(conn, req); err != nil {
		return 0, fmt.Errorf("ctl: sending request to %s: %w", c.Addr, err)
	}
	br := bufio.NewReader(conn)
	line, err := br.ReadString('\n')
	if err != nil {
		return 0, fmt.Errorf("ctl: reading reply header from %s: %w", c.Addr, err)
	}
	line = strings.TrimSuffix(line, "\n")
	if reason, ok := strings.CutPrefix(line, "err "); ok {
		return 0, fmt.Errorf("ctl: %s: %s", c.Addr, reason)
	}
	var n int64
	if _, err := fmt.Sscanf(line, "ok %d", &n); err != nil || n < 0 {
		return 0, fmt.Errorf("ctl: %s answered %q", c.Addr, line)
	}
	if err := read(br, conn, n); err != nil {
		return n, err
	}
	return n, nil
}
