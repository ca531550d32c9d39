package main

import (
	"flag"
	"fmt"
	"io"
	"strings"
)

// compareMain implements `bench compare A.json[#set] B.json[#set]`: for
// every (workload, end-to-end metric) pair both ledgers measured it
// prints one row — improved, unchanged, regressed or unresolved — under
// BENCHMARK.json's bounds, and exits non-zero on a regression or a
// higher failure ratio.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark description (metric bounds)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: bench compare [-spec BENCHMARK.json] A.json[#set] B.json[#set]")
		return 2
	}
	sp, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench compare:", err)
		return 1
	}
	a, err := loadSet(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "bench compare:", err)
		return 1
	}
	b, err := loadSet(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(stderr, "bench compare:", err)
		return 1
	}
	rows, bad := compareSets(sp, a, b)
	fmt.Fprintf(stdout, "%-14s %-16s %12s %12s %8s %7s %7s %6s  %s\n",
		"workload", "metric", "A median", "B median", "change", "A iqr", "B iqr", "bound", "verdict")
	for _, r := range rows {
		fmt.Fprintln(stdout, r)
	}
	if bad {
		return 1
	}
	return 0
}

// loadSet reads the runs of one ledger set. Without a #set suffix the
// ledger must hold exactly one set.
func loadSet(arg string) ([]*runResult, error) {
	path, set, named := strings.Cut(arg, "#")
	l, err := readLedger(path)
	if err != nil {
		return nil, err
	}
	if !named {
		if len(l.Sets) != 1 {
			return nil, fmt.Errorf("%s holds %d sets; name one as %s#<set>", path, len(l.Sets), path)
		}
		for name := range l.Sets {
			set = name
		}
	}
	runs, ok := l.Sets[set]
	if !ok {
		return nil, fmt.Errorf("%s has no set %q", path, set)
	}
	return runs, nil
}

// verdict classifies B against A for one metric. worse is the change of
// the median in the metric's bad direction as a share of A's median.
// A spread (interquartile distance over median) wider than the bound on
// either side cannot resolve a change of the bound's size: the pair is
// unresolved unless every run of one side beats every run of the other.
func verdict(m specMetric, a, b []float64) (worse float64, v string) {
	sign := 1.0 // lower is better: growing is worse
	if m.Better == "higher" {
		sign = -1
	}
	medA, medB := median(a), median(b)
	worse = sign * (medB - medA) / medA
	allBetter, allWorse := true, true
	for _, x := range a {
		for _, y := range b {
			if sign*(y-x) >= 0 {
				allBetter = false
			}
			if sign*(y-x) <= 0 {
				allWorse = false
			}
		}
	}
	bound := *m.Bound
	switch {
	case spread(a) > bound || spread(b) > bound:
		switch {
		case allBetter:
			return worse, "improved"
		case allWorse && worse > bound:
			return worse, "regressed"
		}
		return worse, "unresolved"
	case worse > bound:
		return worse, "regressed"
	case allBetter && -worse > spread(a):
		return worse, "improved"
	}
	return worse, "unchanged"
}

func compareSets(sp *spec, a, b []*runResult) (rows []string, bad bool) {
	type key struct{ workload, metric string }
	group := func(runs []*runResult) (map[key][]float64, map[string][2]int) {
		vals := map[key][]float64{}
		ops := map[string][2]int{}
		for _, r := range runs {
			if r.Trace {
				continue
			}
			o := ops[r.Workload]
			ops[r.Workload] = [2]int{o[0] + r.Failed, o[1] + r.Attempted}
			for name, v := range r.Metrics {
				k := key{r.Workload, name}
				vals[k] = append(vals[k], v)
			}
		}
		return vals, ops
	}
	va, opsA := group(a)
	vb, opsB := group(b)
	for _, w := range workloadNames {
		for _, m := range sp.EndToEnd {
			k := key{w, m.Name}
			if len(va[k]) == 0 || len(vb[k]) == 0 {
				continue
			}
			worse, v := verdict(m, va[k], vb[k])
			if v == "regressed" {
				bad = true
			}
			rows = append(rows, fmt.Sprintf("%-14s %-16s %12.6g %12.6g %+7.1f%% %6.1f%% %6.1f%% %5.0f%%  %s",
				w, m.Name, median(va[k]), median(vb[k]), worse*100, spread(va[k])*100, spread(vb[k])*100, *m.Bound*100, v))
		}
		fa, fb := opsA[w], opsB[w]
		if fa[1] > 0 && fb[1] > 0 && float64(fb[0])/float64(fb[1]) > float64(fa[0])/float64(fa[1]) {
			bad = true
			rows = append(rows, fmt.Sprintf("%-14s %-16s %12s %12s  more operations failed", w, "ops_failed",
				fmt.Sprintf("%d/%d", fa[0], fa[1]), fmt.Sprintf("%d/%d", fb[0], fb[1])))
		}
	}
	return rows, bad
}
