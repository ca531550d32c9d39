package epochwire

import (
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/chaos"
)

// spoolWriteRetries bounds how many times an append retries a failed
// write, and a commit a failed sync, before giving up fatally;
// spoolRetryDelay spaces the attempts. A transient disk hiccup
// (injected or real) rides through; a persistently full disk exhausts
// the budget and latches the shipper, which is the honest outcome — the
// durability contract cannot be met.
const (
	spoolWriteRetries = 8
	spoolRetryDelay   = 5 * time.Millisecond
)

// spool is the probe-side durability buffer: every sealed epoch (and
// the final fin) is appended to an on-disk file, and retained until
// the aggregator reports it *durable*: applied and persisted to its
// state file, not merely received. A dead or restarted aggregator
// therefore never loses a sealed epoch: the shipper replays everything
// past the aggregator's durable cursor from here.
//
// Durability is group-committed. append writes on the sealing
// goroutine and returns; the sender calls commit — one fsync covering
// every entry appended so far — before it offers an entry past the
// committed cursor to the network. The invariant is the one the spool
// always had: no entry is offered to the wire before an fsync covering
// it has returned. What changed is who waits for the disk (the sender,
// never a pipeline shard) and how often (once per batch the sender
// finds waiting, not once per entry).
//
// The layout is an append-only blob file plus an in-memory index of
// {type, watermark, offset, length} entries for the contiguous
// sequence range [firstSeq, nextSeq). Once everything is durable the
// file is truncated back to zero, so steady-state disk use is bounded
// by the ack round-trip, not the run length. The index itself is not
// persisted — a probe restart starts a new incarnation and regenerates
// its stream from the source, which is the recovery model for probe
// crashes (see the package comment).
//
// A budget caps the spool's on-disk size. When an append would exceed
// it, the appending goroutine blocks until pruning frees space — this
// is the backpressure path: a dead aggregator eventually stalls
// sealing instead of silently growing the spool without bound. The
// release flag (set by shipper fatal/abort) unblocks waiters so a
// latched shipper never wedges the pipeline.
type spool struct {
	mu        sync.Mutex
	space     sync.Cond // waits for budget headroom; signaled by prune/release
	fs        chaos.FS
	f         chaos.File
	budget    int64  // max on-disk bytes; 0 = unlimited
	starve    func() // called (under mu, must not block) by an appender about to wait on the budget
	waiting   int    // appenders blocked on the budget right now
	released  bool   // shipper dead: stop blocking, fail appends fast
	firstSeq  uint64 // seq of entries[0]; meaningful only when len(entries) > 0
	nextSeq   uint64 // seq the next append receives
	committed uint64 // highest seq covered by an fsync that has returned
	pruned    uint64 // highest seq ever pruned (all ≤ pruned are gone)
	entries   []spoolEntry
	size      int64  // current file length
	retries   uint64 // write/sync attempts that failed and were retried
}

type spoolEntry struct {
	typ byte
	wm  uint64
	off int64
	n   int32
}

// newSpool opens (truncating) the spool file. starve is how a full
// spool asks for help: an appender about to block on the budget calls
// it so the sender can go fetch the aggregator's durable cursor now
// instead of at its next keepalive.
func newSpool(path string, fs chaos.FS, budget int64, starve func()) (*spool, error) {
	if fs == nil {
		fs = chaos.OS
	}
	f, err := fs.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("epochwire: opening spool: %w", err)
	}
	s := &spool{fs: fs, f: f, budget: budget, starve: starve, nextSeq: 1}
	s.space.L = &s.mu
	return s, nil
}

// append stores one outgoing epoch/fin blob: the bytes are written
// (with bounded retries) before the sequence number is assigned, so an
// entry the sender can see is always fully in the file. It does not
// sync — commit does, on the sender, before the entry is offered to
// the wire. Blocks while the spool is at its disk budget.
func (s *spool) append(typ byte, wm uint64, blob []byte) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.budget > 0 && s.size+int64(len(blob)) > s.budget && !s.released {
		if int64(len(blob)) > s.budget {
			return 0, Fatal(fmt.Errorf("epochwire: %d-byte epoch exceeds the whole %d-byte spool budget", len(blob), s.budget))
		}
		s.waiting++
		s.starve()
		s.space.Wait()
		s.waiting--
	}
	if s.released {
		return 0, Fatal(fmt.Errorf("epochwire: spool closed"))
	}
	var err error
	for attempt := 0; attempt <= spoolWriteRetries; attempt++ {
		if attempt > 0 {
			s.retries++
			time.Sleep(spoolRetryDelay)
		}
		if _, err = s.f.WriteAt(blob, s.size); err == nil {
			break
		}
	}
	if err != nil {
		return 0, Fatal(fmt.Errorf("epochwire: spool write failed %d times: %w", spoolWriteRetries+1, err))
	}
	seq := s.nextSeq
	s.nextSeq++
	if len(s.entries) == 0 {
		s.firstSeq = seq
	}
	s.entries = append(s.entries, spoolEntry{typ: typ, wm: wm, off: s.size, n: int32(len(blob))})
	s.size += int64(len(blob))
	return seq, nil
}

// commit makes every entry appended so far durable with one fsync
// (bounded retries, as append's write) and advances the committed
// cursor past them. The sync runs outside mu, so a seal never queues
// behind the disk; an entry appended while it runs is simply not
// covered and waits for the next commit. Only the sender calls this —
// the one goroutine that also prunes and truncates — and only when the
// seq it is about to send is past committedSeq.
func (s *spool) commit() error {
	s.mu.Lock()
	through := s.nextSeq - 1 // every seq ≤ through has had its write return
	s.mu.Unlock()
	var err error
	for attempt := 0; attempt <= spoolWriteRetries; attempt++ {
		if attempt > 0 {
			s.mu.Lock()
			s.retries++
			s.mu.Unlock()
			time.Sleep(spoolRetryDelay)
		}
		if err = s.f.Sync(); err == nil {
			break
		}
	}
	if err != nil {
		return Fatal(fmt.Errorf("epochwire: spool sync failed %d times: %w", spoolWriteRetries+1, err))
	}
	s.mu.Lock()
	s.committed = through
	s.mu.Unlock()
	return nil
}

// committedSeq returns the highest seq an fsync has covered. It lives
// here rather than in a session so a reconnect resending already
// committed entries does not sync again.
func (s *spool) committedSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.committed
}

// starved reports whether an appender is blocked on the disk budget.
func (s *spool) starved() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.waiting > 0
}

// get rebuilds the wire message for seq. Requesting a pruned sequence
// is fatal to the session: the aggregator asked for history the probe
// no longer has (its state regressed past what it had acknowledged as
// durable), which only an operator restarting the probe under a new
// incarnation can repair.
func (s *spool) get(seq uint64) (*Message, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if seq <= s.pruned {
		return nil, Fatal(fmt.Errorf("epochwire: spool no longer holds seq %d (pruned through %d); aggregator state regressed past its own durable cursor", seq, s.pruned))
	}
	if len(s.entries) == 0 || seq < s.firstSeq || seq >= s.firstSeq+uint64(len(s.entries)) {
		return nil, Fatal(fmt.Errorf("epochwire: spool has no seq %d", seq))
	}
	e := s.entries[seq-s.firstSeq]
	blob := make([]byte, e.n)
	if _, err := s.f.ReadAt(blob, e.off); err != nil {
		return nil, Fatal(fmt.Errorf("epochwire: spool read: %w", err))
	}
	return &Message{Type: e.typ, Seq: seq, Watermark: e.wm, Blob: blob}, nil
}

// pruneThrough drops every entry with seq ≤ durable, waking any
// appender blocked on the disk budget. When the spool empties
// completely the backing file is truncated to zero so a healthy
// session keeps disk use at one in-flight window.
func (s *spool) pruneThrough(durable uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if durable <= s.pruned {
		return
	}
	s.pruned = durable
	for len(s.entries) > 0 && s.firstSeq <= durable {
		s.entries = s.entries[1:]
		s.firstSeq++
	}
	if len(s.entries) == 0 {
		s.entries = nil
		if err := s.f.Truncate(0); err == nil {
			s.size = 0
			s.space.Broadcast()
		}
	}
}

// release unblocks budget waiters and fails any future append — called
// when the shipper latches fatal or aborts, so a blocked SealHook
// returns instead of wedging the pipeline forever.
func (s *spool) release() {
	s.mu.Lock()
	s.released = true
	s.space.Broadcast()
	s.mu.Unlock()
}

// stats reports the spool's retained entry count and on-disk size —
// the wire_spool_depth / wire_spool_bytes gauges. Size only shrinks
// at the empty-spool truncation, so it reports actual disk use, not
// logical content.
func (s *spool) stats() (depth int, size int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries), s.size
}

// retryCount reports how many write and sync attempts failed and were
// retried.
func (s *spool) retryCount() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.retries
}

// lastSeq returns the highest sequence number ever appended (0 before
// the first append).
func (s *spool) lastSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nextSeq - 1
}

func (s *spool) close() error {
	s.release()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.f.Close()
}
