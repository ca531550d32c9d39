package catalog

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/ctl"
	"repro/internal/obs"
	"repro/internal/rollup"
)

// Server answers the internal/ctl protocol — the one cmd/aggd speaks
// over its live fold — from an on-disk store instead, so rollupctl
// fetch works unchanged against either.
//
// The store is re-scanned before each request: when the member set (or
// any member's size or mtime) changed, the catalog reopens, so a
// daemon watching a snapshot directory serves new days as they land.
// Requests serialize on that scan; a swap can close files while a
// query reads them otherwise. A query daemon over occasional analyst
// fetches trades no real throughput for that simplicity.
type Server struct {
	ctl     *ctl.Server
	roots   []string
	reg     *obs.Registry
	metrics *Metrics

	mu  sync.Mutex
	sig string
	cat *Catalog
}

// NewServer opens the store (failing fast on an unreadable or
// grid-incompatible one), binds addr, and starts serving. reg receives
// the catalog_* metric family; nil gets a private registry (still
// scrapeable through the "metrics" ctl verb).
func NewServer(addr string, reg *obs.Registry, roots ...string) (*Server, error) {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s := &Server{roots: roots, reg: reg, metrics: newMetrics(reg)}
	if err := s.refreshLocked(); err != nil {
		return nil, err
	}
	var err error
	if s.ctl, err = ctl.Serve(addr, s, reg); err != nil {
		s.cat.Close()
		return nil, err
	}
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ctl.Addr() }

// Registry returns the server's metric registry (never nil) for the
// -metrics HTTP listener.
func (s *Server) Registry() *obs.Registry { return s.reg }

// Close stops accepting, waits out in-flight requests, and releases
// the store.
func (s *Server) Close() error {
	err := s.ctl.Close()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cat != nil {
		s.cat.Close()
		s.cat = nil
	}
	return err
}

// refreshLocked reopens the catalog when the store changed on disk:
// the fingerprint is path, size and mtime of every file the roots
// currently resolve to. Callers hold s.mu (or, in NewServer, exclusive
// ownership).
func (s *Server) refreshLocked() error {
	members, err := expand(s.roots)
	if err != nil {
		return err
	}
	var b strings.Builder
	for _, p := range members {
		fi, err := os.Stat(p)
		if err != nil {
			return err
		}
		fmt.Fprintf(&b, "%s\x00%d\x00%d\n", p, fi.Size(), fi.ModTime().UnixNano())
	}
	if sig := b.String(); sig != s.sig || s.cat == nil {
		cat, err := Open(s.roots...)
		if err != nil {
			return err
		}
		if s.cat != nil {
			s.cat.Close()
		}
		s.cat, s.sig = cat, sig
		s.metrics.Refreshes.Inc()
	}
	return nil
}

// status is the "status" reply: the store's shape, for operators and
// the rollupctl fetch -status path.
type status struct {
	Files    []string `json:"files"`
	Epochs   int      `json:"epochs"`
	Bins     int      `json:"bins"`
	Start    string   `json:"start"`
	StepSecs float64  `json:"step_secs"`
	Services int      `json:"services"`
}

// Status implements ctl.Backend over the store as it is on disk now.
func (s *Server) Status() (any, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.refreshLocked(); err != nil {
		return nil, err
	}
	c := s.cat
	return status{
		Files:    c.Paths(),
		Epochs:   c.EpochCount(),
		Bins:     c.cfg.Bins,
		Start:    c.cfg.Start.UTC().Format(time.RFC3339),
		StepSecs: c.cfg.Step.Seconds(),
		Services: len(c.svcs),
	}, nil
}

// Snapshot implements ctl.Backend. Full fidelity, not a view: the
// store's members streamed through the bounded-memory merger into the
// reply — counters, totals and the overflow epoch intact,
// byte-identical to merging by hand.
func (s *Server) Snapshot() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.refreshLocked(); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := rollup.MergeTo(&buf, s.cat.Paths()...); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// View implements ctl.Backend through the footer-index planner,
// feeding its accounting to the catalog_* metrics.
func (s *Server) View(spec rollup.ViewSpec) (*rollup.Partial, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.refreshLocked(); err != nil {
		return nil, err
	}
	part, qst, err := s.cat.Query(spec)
	if err != nil {
		return nil, err
	}
	s.metrics.observe(qst)
	return part, nil
}
