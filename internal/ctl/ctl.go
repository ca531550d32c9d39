// Package ctl is the admin ("ctl") plane every query-answering daemon
// speaks — one request line per TCP connection, one framed reply:
//
//	status | snapshot | metrics        → ok <n>\n + n bytes (JSON, v2 snapshot, JSON)
//	query | query|<spec> | window A:B  → ok <n>\n + n bytes of the view as a v2 snapshot
//	anything else, or a failed request → err <one-line message>\n
//
// DESIGN.md §16 is the spec. The wire format lives here and nowhere
// else; a daemon supplies a Backend — the three answers that differ
// between a live fold (epochwire.Aggregator) and an on-disk store
// (catalog.Server).
package ctl

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/rollup"
)

const (
	// maxRequestLine admits a query naming dozens of services; anything
	// longer is abuse, and closes the connection unanswered.
	maxRequestLine = 4096
	// stepTimeout bounds each I/O step — reading the request line, writing
	// each replyChunk — so a stalled peer loses its connection while a
	// large reply on a slow link is fine as long as bytes keep moving.
	stepTimeout = 30 * time.Second
	replyChunk  = 1 << 20
)

// Backend is what a daemon answers the protocol from. Methods run on
// connection goroutines, concurrently; the backend does its own locking.
type Backend interface {
	// Status returns the value the status verb JSON-encodes.
	Status() (any, error)
	// Snapshot returns the whole aggregate as v2 snapshot bytes: totals,
	// counters and the overflow epoch intact.
	Snapshot() ([]byte, error)
	// View cuts spec out of the aggregate. The server only encodes the
	// result, so a backend may hand out shared immutable state.
	View(spec rollup.ViewSpec) (*rollup.Partial, error)
}

// Server owns a ctl listener and answers every connection from its
// Backend and, for the metrics verb, its registry.
type Server struct {
	ln      net.Listener
	backend Backend
	reg     *obs.Registry
	wg      sync.WaitGroup
}

// Serve binds addr and answers the protocol until Close.
func Serve(addr string, backend Backend, reg *obs.Registry) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{ln: ln, backend: backend, reg: reg}
	s.wg.Add(1)
	go s.accept()
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops accepting and waits out in-flight requests, after which
// the backend is no longer called.
func (s *Server) Close() error {
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

func (s *Server) accept() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.wg.Add(1)
		go s.handle(conn)
	}
}

func (s *Server) handle(conn net.Conn) {
	defer s.wg.Done()
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(stepTimeout))
	line, err := bufio.NewReader(io.LimitReader(conn, maxRequestLine)).ReadString('\n')
	if err != nil {
		return
	}
	body, err := s.answer(strings.TrimSpace(line))
	if err != nil {
		fmt.Fprintf(conn, "err %s\n", strings.ReplaceAll(err.Error(), "\n", " "))
		return
	}
	fmt.Fprintf(conn, "ok %d\n", len(body))
	for len(body) > 0 {
		chunk := body[:min(len(body), replyChunk)]
		conn.SetWriteDeadline(time.Now().Add(stepTimeout))
		if _, err := conn.Write(chunk); err != nil {
			return
		}
		body = body[len(chunk):]
	}
}

// answer maps one request line to its reply body.
func (s *Server) answer(line string) ([]byte, error) {
	var buf bytes.Buffer
	switch {
	case line == "status":
		st, err := s.backend.Status()
		if err != nil {
			return nil, err
		}
		return json.Marshal(st)
	case line == "snapshot":
		return s.backend.Snapshot()
	case line == "metrics":
		err := s.reg.WriteJSON(&buf)
		return buf.Bytes(), err
	case line == "query" || strings.HasPrefix(line, "query|") || strings.HasPrefix(line, "window"):
		// window A:B is the historical spelling of query|A:B; query adds
		// service/commune filters, "|"-separated since names contain spaces.
		var spec rollup.ViewSpec
		var err error
		if arg, ok := strings.CutPrefix(line, "query|"); ok {
			spec, err = rollup.ParseViewSpec(arg)
		} else if arg, ok := strings.CutPrefix(line, "window"); ok && strings.TrimSpace(arg) != "" {
			spec.From, spec.To, err = rollup.ParseBinRange(strings.TrimSpace(arg))
		} else if line != "query" {
			err = fmt.Errorf("usage: window A:B")
		}
		if err != nil {
			return nil, err
		}
		view, err := s.backend.View(spec)
		if err != nil {
			return nil, err
		}
		err = rollup.WriteV2(&buf, view)
		return buf.Bytes(), err
	default:
		return nil, fmt.Errorf("unknown command %q", line)
	}
}
