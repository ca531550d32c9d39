// Package chaos is the fault-injection plane: a dependency-free,
// seeded, schedule-driven injector with adapters for the two media a
// collection daemon touches — the wire (Conn/Listener/Dial wrappers
// over net.Conn) and the disk (an FS seam over the spool, the state
// log and WriteAtomic's whole-file commits). The distributed plane
// threads these seams through internal/epochwire, so the same binaries
// that run production collection can run under a reproducible storm of
// dial refusals, mid-frame resets, short writes, stalls, corrupted
// frames, full disks, failing fsyncs and torn renames.
//
// # Determinism
//
// Every injection decision is a pure function of (seed, site, fault
// kind, per-site operation index): the i-th write at site "spool"
// faults — or not — identically across runs with the same seed,
// regardless of how goroutines interleave across sites. Reproducing a
// failed schedule therefore needs only the seed and the spec string;
// nothing reads math/rand or the clock.
//
// # Subsiding faults
//
// A spec's fuel is the total number of faults the injector may fire
// across all sites; once it burns out the injector is transparent
// forever after. This is what makes "faults eventually subside" a
// schedule property instead of a hope, and it is the precondition of
// the convergence oracle: under any fuel-bounded schedule, N probes +
// an aggregator must still converge to the exact byte-identical
// snapshot of the single-process run.
//
// # Spec grammar
//
// A spec string is "<seed>:<clause>[,<clause>...]" where each clause
// is <fault>=<probability>, fuel=<n>, or stall=<duration>:
//
//	12:dial=0.1,reset=0.05,corrupt=0.02,enospc=0.05,fuel=64,stall=200ms
//
// Fault kinds: dial (refused connection), reset (connection reset
// mid-frame), shortw (short write then the connection dies), stallr /
// stallw (read/write blocks past its deadline), corrupt (one byte of
// a written frame flips, upstream of any CRC check), fsshort (file
// short write), enospc (write fails with ENOSPC), fsync (Sync fails
// with EIO), rename (rename fails, the temp file is left behind), and
// crash (the FS latches dead mid-operation — every later call fails
// with ErrCrashed, simulating process death for restart tests).
package chaos

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Fault enumerates the injectable fault kinds.
type Fault int

const (
	// FaultDial refuses a dial with a connection-refused error.
	FaultDial Fault = iota
	// FaultReset closes the connection and reports a reset.
	FaultReset
	// FaultShortWrite writes a prefix of the buffer, then kills the
	// connection — the wire dies mid-frame.
	FaultShortWrite
	// FaultStallRead blocks a read past its deadline.
	FaultStallRead
	// FaultStallWrite blocks a write past its deadline.
	FaultStallWrite
	// FaultCorrupt flips one byte of a written buffer — injected
	// upstream of the receiver's CRC check, which must catch it.
	FaultCorrupt
	// FaultFSShortWrite makes a file write report fewer bytes.
	FaultFSShortWrite
	// FaultENOSPC fails a file write with ENOSPC.
	FaultENOSPC
	// FaultFsync fails a Sync with EIO.
	FaultFsync
	// FaultRename fails a rename with EIO, leaving the source behind —
	// the torn-rename shape of a non-atomic filesystem.
	FaultRename
	// FaultCrash tears the current FS operation halfway and latches
	// the whole FS dead (ErrCrashed ever after).
	FaultCrash

	numFaults
)

var faultNames = [numFaults]string{
	FaultDial:         "dial",
	FaultReset:        "reset",
	FaultShortWrite:   "shortw",
	FaultStallRead:    "stallr",
	FaultStallWrite:   "stallw",
	FaultCorrupt:      "corrupt",
	FaultFSShortWrite: "fsshort",
	FaultENOSPC:       "enospc",
	FaultFsync:        "fsync",
	FaultRename:       "rename",
	FaultCrash:        "crash",
}

func (f Fault) String() string {
	if f >= 0 && f < numFaults {
		return faultNames[f]
	}
	return "fault#" + strconv.Itoa(int(f))
}

// Spec is a parsed fault schedule.
type Spec struct {
	// Seed drives every injection decision.
	Seed uint64
	// Prob is the per-operation firing probability of each fault kind;
	// zero disables the kind.
	Prob [numFaults]float64
	// Fuel caps the total faults fired across the injector's lifetime;
	// <= 0 means unlimited (faults never subside).
	Fuel int
	// Stall caps how long a stall fault sleeps when the connection has
	// no (or a distant) deadline. Default 1s.
	Stall time.Duration
}

// Injector makes the injection decisions for one seeded schedule. The
// zero-value *Injector is nil-safe: a nil injector injects nothing and
// every adapter constructor returns its argument unwrapped, so the
// production fast path carries no chaos overhead beyond a nil check.
type Injector struct {
	spec Spec

	mu      sync.Mutex
	fuel    int // remaining; -1 = unlimited
	fired   int
	crashed bool
	sites   map[string]*siteState

	// Exact crash point (CrashAt): fires regardless of probabilities.
	crashSite string
	crashOp   string
	crashAt   int
	crashArm  bool
}

// siteState is the per-site operation counters — one slot per fault
// kind, plus named counters for FS crash points.
type siteState struct {
	name string
	n    [numFaults]uint64
	opN  map[string]int
}

// Injector builds the injector for a spec.
func (s Spec) Injector() *Injector {
	if s.Stall <= 0 {
		s.Stall = time.Second
	}
	fuel := s.Fuel
	if fuel <= 0 {
		fuel = -1
	}
	return &Injector{spec: s, fuel: fuel, sites: make(map[string]*siteState)}
}

// Parse builds an injector from a "<seed>:<clauses>" spec string.
func Parse(arg string) (*Injector, error) {
	seedStr, clauses, ok := strings.Cut(arg, ":")
	if !ok {
		return nil, fmt.Errorf("chaos: spec %q wants <seed>:<fault>=<p>,...", arg)
	}
	seed, err := strconv.ParseUint(strings.TrimSpace(seedStr), 10, 64)
	if err != nil {
		return nil, fmt.Errorf("chaos: spec seed %q is not an unsigned integer", seedStr)
	}
	spec := Spec{Seed: seed}
	byName := make(map[string]Fault, numFaults)
	for f := Fault(0); f < numFaults; f++ {
		byName[faultNames[f]] = f
	}
	for _, clause := range strings.Split(clauses, ",") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		key, val, ok := strings.Cut(clause, "=")
		if !ok {
			return nil, fmt.Errorf("chaos: clause %q wants <name>=<value>", clause)
		}
		switch key {
		case "fuel":
			n, err := strconv.Atoi(val)
			if err != nil || n <= 0 {
				return nil, fmt.Errorf("chaos: fuel %q wants a positive integer", val)
			}
			spec.Fuel = n
		case "stall":
			d, err := time.ParseDuration(val)
			if err != nil || d <= 0 {
				return nil, fmt.Errorf("chaos: stall %q wants a positive duration", val)
			}
			spec.Stall = d
		default:
			f, ok := byName[key]
			if !ok {
				return nil, fmt.Errorf("chaos: unknown fault %q (want one of %s, fuel, stall)", key, strings.Join(faultNames[:], " "))
			}
			p, err := strconv.ParseFloat(val, 64)
			if err != nil || p < 0 || p > 1 {
				return nil, fmt.Errorf("chaos: probability %q for %s wants a float in [0,1]", val, key)
			}
			spec.Prob[f] = p
		}
	}
	return spec.Injector(), nil
}

// CrashAt builds an injector that injects nothing probabilistic but
// latches an FS crash exactly at operation n (0-based) of kind op
// ("write", "sync", "rename", "open", "readfile", "remove", "syncdir")
// at the named FS site — the deterministic crash points the durability
// tests pin restarts against.
func CrashAt(site, op string, n int) *Injector {
	in := Spec{}.Injector()
	in.crashSite, in.crashOp, in.crashAt, in.crashArm = site, op, n, true
	return in
}

// String describes the schedule for daemon logs.
func (in *Injector) String() string {
	if in == nil {
		return "chaos: off"
	}
	if in.crashArm {
		return fmt.Sprintf("chaos: crash at %s/%s op %d", in.crashSite, in.crashOp, in.crashAt)
	}
	var parts []string
	for f := Fault(0); f < numFaults; f++ {
		if p := in.spec.Prob[f]; p > 0 {
			parts = append(parts, fmt.Sprintf("%s=%g", faultNames[f], p))
		}
	}
	sort.Strings(parts)
	fuel := "unlimited"
	if in.fuelLimit() >= 0 {
		fuel = strconv.Itoa(in.spec.Fuel)
	}
	return fmt.Sprintf("chaos: seed %d, %s, fuel %s, stall cap %v",
		in.spec.Seed, strings.Join(parts, " "), fuel, in.spec.Stall)
}

func (in *Injector) fuelLimit() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.spec.Fuel <= 0 {
		return -1
	}
	return in.spec.Fuel
}

// FuelLeft reports the remaining fault budget (-1 when unlimited);
// zero means the schedule has subsided.
func (in *Injector) FuelLeft() int {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.fuel
}

// Fired reports how many faults the injector has injected so far.
func (in *Injector) Fired() int {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.fired
}

// Crashed reports whether an FS crash fault has latched.
func (in *Injector) Crashed() bool {
	if in == nil {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.crashed
}

// site returns (creating on first use) the per-site counters.
func (in *Injector) site(name string) *siteState {
	in.mu.Lock()
	defer in.mu.Unlock()
	st := in.sites[name]
	if st == nil {
		st = &siteState{name: name, opN: make(map[string]int)}
		in.sites[name] = st
	}
	return st
}

// fire decides whether fault f fires for the next operation at st,
// consuming fuel when it does. Decisions depend only on (seed, site,
// fault, per-site index), never on cross-site interleaving.
func (in *Injector) fire(st *siteState, f Fault) bool {
	if in == nil {
		return false
	}
	p := in.spec.Prob[f]
	in.mu.Lock()
	defer in.mu.Unlock()
	idx := st.n[f]
	st.n[f]++
	if p <= 0 || in.fuel == 0 {
		return false
	}
	if !decide(in.spec.Seed, st.name, f, idx, p) {
		return false
	}
	if in.fuel > 0 {
		in.fuel--
	}
	in.fired++
	return true
}

// rand draws a deterministic value in [0, n) for fault f's current
// site index — e.g. which byte of a frame to corrupt.
func (in *Injector) rand(st *siteState, f Fault, n int) int {
	if in == nil || n <= 0 {
		return 0
	}
	in.mu.Lock()
	idx := st.n[f] // already advanced by the fire that brought us here
	in.mu.Unlock()
	h := mix(in.spec.Seed ^ fnv64(st.name) ^ uint64(f)<<56 ^ mix(idx+0x9E3779B97F4A7C15))
	return int(h % uint64(n))
}

// decide is the pure decision function.
func decide(seed uint64, site string, f Fault, idx uint64, p float64) bool {
	h := mix(seed ^ fnv64(site) ^ uint64(f)<<48 ^ mix(idx*0x9E3779B97F4A7C15+1))
	return float64(h>>11)/(1<<53) < p
}

// mix is the splitmix64 finalizer.
func mix(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	h *= 0x94D049BB133111EB
	h ^= h >> 31
	return h
}

// fnv64 is FNV-1a over s.
func fnv64(s string) uint64 {
	h := uint64(0xCBF29CE484222325)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001B3
	}
	return h
}
