// Command bench is the repository's performance ledger: six workloads
// that drive the same public functions the cmd/ binaries call —
// streaming sources, live metrics bundles, real files, real loopback
// TCP — verify every output, and print end-to-end metrics (untraced
// run) or per-layer metrics (traced run: boundary wrappers on the seams
// production code already exposes) under the names BENCHMARK.json
// declares. It claims no gain; it is the instrument later claims are
// read from. See README.md.
//
//	go run ./bench -list
//	go run ./bench -workload local-sim -seed 1 [-seconds 6] [-trace 1 [-spans spans.json]]
//	go run ./bench -workload all -seed 1 -out ledger.json -set a
//	go run ./bench compare A.json[#set] B.json[#set]
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strings"
	"time"
)

// spec is the part of BENCHMARK.json the program reads.
type spec struct {
	RunSeconds int          `json:"run_seconds"`
	Workloads  []specWork   `json:"workloads"`
	EndToEnd   []specMetric `json:"end_to_end"`
	PerLayer   []specMetric `json:"per_layer"`
}

type specWork struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// workloads lists the scenarios in ledger order.
var workloadNames = []string{"local-sim", "local-replay", "dist-2probe", "store-build", "store-query", "analysis-week"}

func newWorkload(name string, o options) workload {
	switch name {
	case "local-sim":
		return &localSim{o: o}
	case "local-replay":
		return &localReplay{o: o}
	case "dist-2probe":
		return &dist2probe{o: o}
	case "store-build":
		return &storeBuild{o: o}
	case "store-query":
		return &storeQuery{o: o}
	case "analysis-week":
		return &analysisWeek{o: o}
	}
	return nil
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run, or \"all\" (see -list)")
	seed := fs.Uint64("seed", 1, "drives the gtpsim seed and the query-mix PRNG; the program under test sees only generated inputs")
	seconds := fs.Float64("seconds", 0, "measuring time per run (default: BENCHMARK.json's run_seconds)")
	trace := fs.String("trace", "0", "1 = also run with the boundary wrappers on and print the per-layer metrics")
	spans := fs.String("spans", "", "with -trace 1: write the recorded spans to this JSON file")
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark description (metric names, units, bounds)")
	workdir := fs.String("workdir", ".bench_work", "scratch directory for traces, snapshots, spools and state")
	out := fs.String("out", "", "append this run's record to a ledger file")
	set := fs.String("set", "runs", "ledger set to append to (with -out)")
	list := fs.Bool("list", false, "list workloads and metrics and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *list {
		printList(stdout, sp)
		return 0
	}
	o := options{seed: *seed, trace: *trace == "1", size: refSizes()}
	if *trace != "0" && *trace != "1" {
		fmt.Fprintln(stderr, "bench: -trace wants 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		*seconds = float64(sp.RunSeconds)
	}
	o.budget = time.Duration(*seconds * float64(time.Second))
	names := []string{*name}
	if *name == "all" {
		names = workloadNames
	} else if !slices.Contains(workloadNames, *name) {
		fmt.Fprintf(stderr, "bench: unknown workload %q (have %s, or all)\n", *name, strings.Join(workloadNames, ", "))
		return 2
	}

	mach := machineInfo()
	fmt.Fprintf(stdout, "# nproc=%d GOMAXPROCS=%d %s commit=%s seed=%d size=%s seconds=%g trace=%v\n",
		mach.NumCPU, mach.GOMAXPROCS, mach.GoVersion, mach.Commit, o.seed, o.size.name, *seconds, o.trace)
	code := 0
	for _, n := range names {
		// Each run gets its own scratch directory, so concurrent or
		// crashed runs never read each other's leftovers.
		if err := os.MkdirAll(*workdir, 0o755); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		o.dir, err = os.MkdirTemp(*workdir, n+"-")
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		res, err := drive(n, newWorkload(n, o), o)
		os.RemoveAll(o.dir)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		declared := sp.EndToEnd
		if o.trace {
			declared = sp.PerLayer
		}
		if err := report(stdout, res, declared); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		if res.Failed > 0 {
			code = 1
		}
		if *spans != "" && res.tracer != nil {
			if err := res.tracer.writeFile(*spans); err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
		}
		if *out != "" {
			if err := appendLedger(*out, *set, mach, res); err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
		}
	}
	return code
}

func printList(w io.Writer, sp *spec) {
	fmt.Fprintln(w, "workloads:")
	for _, wl := range sp.Workloads {
		fmt.Fprintf(w, "  %-14s %s\n", wl.Name, wl.Why)
	}
	fmt.Fprintln(w, "end-to-end metrics (untraced run):")
	for _, m := range sp.EndToEnd {
		fmt.Fprintf(w, "  %-36s %-6s %s is better, bound %.0f%%\n", m.Name, m.Unit, m.Better, *m.Bound*100)
	}
	fmt.Fprintln(w, "per-layer metrics (-trace 1):")
	for _, m := range sp.PerLayer {
		fmt.Fprintf(w, "  %-36s %-6s %s is better\n", m.Name, m.Unit, m.Better)
	}
}

// contractLine is the last line of a run's standard output.
type contractLine struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints the run's metrics by name with their units, then the
// one-line JSON result. Exactly the declared metrics are printed: one a
// workload's layers do not produce reads 0, one that is undeclared or
// not a finite number is an error in the benchmark itself.
func report(w io.Writer, res *runResult, declared []specMetric) error {
	fmt.Fprintf(w, "## %s: %d reps, %d/%d ops failed\n", res.Workload, res.Reps, res.Failed, res.Attempted)
	for _, f := range res.Failures {
		fmt.Fprintf(w, "FAILED %s\n", f)
	}
	line := contractLine{Correct: res.Failed == 0, Attempted: max(res.Attempted, 1), Failed: res.Failed, Metrics: map[string]contractMetric{}}
	if res.Failed == 0 {
		names := map[string]bool{}
		for _, m := range declared {
			names[m.Name] = true
			v := res.Metrics[m.Name]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("%s: metric %s is %v", res.Workload, m.Name, v)
			}
			fmt.Fprintf(w, "%-36s %14.6g %s\n", m.Name, v, m.Unit)
			line.Metrics[m.Name] = contractMetric{Value: v, Unit: m.Unit}
		}
		for name := range res.Metrics {
			if !names[name] {
				return fmt.Errorf("%s: metric %s is not declared in BENCHMARK.json", res.Workload, name)
			}
		}
	}
	js, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", js)
	return err
}

// machine is recorded with every ledger.
type machine struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	OSArch     string `json:"os_arch"`
	CPU        string `json:"cpu"`
	Commit     string `json:"commit"`
}

func machineInfo() machine {
	m := machine{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		OSArch: runtime.GOOS + "/" + runtime.GOARCH, CPU: "unknown", Commit: "unknown"}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	// A driver's checkout is not a git repository; the commit is then
	// simply unknown.
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		m.Commit = strings.TrimSpace(string(out))
	}
	return m
}

// ledger is the on-disk record of benchmark runs: named sets of runs
// (two untraced sets and a traced one make a committed BENCH_<n>.json).
type ledger struct {
	Machine machine                 `json:"machine"`
	Sets    map[string][]*runResult `json:"sets"`
}

func readLedger(path string) (*ledger, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var l ledger
	if err := json.Unmarshal(raw, &l); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &l, nil
}

func appendLedger(path, set string, mach machine, res *runResult) error {
	l, err := readLedger(path)
	if errors.Is(err, os.ErrNotExist) {
		l, err = &ledger{Machine: mach, Sets: map[string][]*runResult{}}, nil
	}
	if err != nil {
		return err
	}
	l.Sets[set] = append(l.Sets[set], res)
	js, err := json.MarshalIndent(l, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(js, '\n'), 0o644)
}
