// Command rollupctl operates on rollup snapshots: the snapshot
// algebra from the shell. Collection happens in units — one probe run,
// one day, one region (see probesim -snapshot and -window) — and
// rollupctl combines and slices those units without touching a
// simulator, a probe or a raw trace:
//
//	rollupctl info day1.roll day2.roll
//	rollupctl verify day1.roll
//	rollupctl merge -o week.roll day1.roll day2.roll ...
//	rollupctl window -from 0 -to 336 -o sat.roll week.roll
//	rollupctl window -day 3 -o tuesday.roll week.roll
//
// merge streams the sources through the k-way snapshot merger
// (rollup.MergeFiles): sources with aligned grids — adjacent days,
// disjoint regions of one geography, even overlapping reruns — are
// re-binned onto their union grid and summed exactly, with live
// memory bounded by one epoch of cells per source, never a whole
// snapshot. window cuts a bin subrange back out as its own snapshot;
// analyze -snapshot (optionally with -window) runs the experiment
// engine over any of these files.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"time"

	"repro/internal/catalog"
	"repro/internal/chaos"
	"repro/internal/ctl"
	"repro/internal/daemon"
	"repro/internal/epochwire"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/rollup"
	"repro/internal/services"
)

func main() {
	ctx := context.Background()
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		// The one subcommand that is a daemon drains on the first signal;
		// the others keep the default die-on-SIGINT.
		ctx = daemon.SignalContext("rollupctl")
	}
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// commands maps a subcommand to its implementation; each parses its own
// flags from args.
var commands = map[string]func(ctx context.Context, args []string, stdout, stderr io.Writer) error{
	"info":    runInfo,
	"verify":  runVerify,
	"merge":   runMerge,
	"window":  runWindow,
	"query":   runQuery,
	"serve":   runServe,
	"upgrade": runUpgrade,
	"fetch":   runFetch,
}

// run dispatches one invocation and returns its exit code: 0 on
// success (and -h), 1 when the command failed, 2 on a usage error.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := daemon.NewFlagSet("rollupctl", usage, stderr)
	err := daemon.Parse(fs, args)
	if err == nil {
		if cmd, ok := commands[fs.Arg(0)]; ok {
			err = cmd(ctx, fs.Args()[1:], stdout, stderr)
		} else {
			if fs.NArg() > 0 {
				fmt.Fprintf(stderr, "rollupctl: unknown command %q\n\n", fs.Arg(0))
			}
			fs.Usage()
			err = daemon.ErrUsage
		}
	}
	if err != nil {
		err = fmt.Errorf("rollupctl: %w", err)
	}
	return daemon.Exit(stderr, err)
}

const usage = `rollupctl: operate on rollup snapshots (the snapshot algebra)

Commands:
  info    [-json] file...              print grid, geography, totals and counters
                                       (-json: one machine-readable object per file)
  verify  file...                      decode fully (orderings + CRC) and cross-check
                                       cell sums against the recorded totals
  merge   -o out file...               k-way streaming merge onto the union grid
  window  -from A -to B -o out file    cut bins [A, B) out as a new snapshot
  window  -day N -o out file           cut calendar day N (day 0 = grid start)
  query   [-window A:B] [-services a,b] [-communes 1,2] [-stats] -o out path...
                                       open paths (files and/or directories of
                                       *.roll) as one store and cut the selected
                                       view, decoding only the epochs the v2
                                       footer indexes cannot prune
  serve   -ctl addr [-metrics addr] path...
                                       daemon: answer the aggd ctl protocol
                                       (status/snapshot/window/query/metrics) over
                                       an on-disk store, rescanning it per request
  upgrade src dst                      rewrite a v1 snapshot as v2 (same payload
                                       bytes, plus the footer index)
  fetch   -from addr [-window A:B] [-query SPEC] [-status] [-metrics] [-conserve] -o out
                                       pull a live snapshot, status, or metrics from
                                       a running aggd's or rollupctl serve's -ctl
                                       socket; -status and -metrics render human
                                       tables (-json for the raw reply), -conserve
                                       asserts applied == fold cell bytes on aggd;
                                       -query SPEC is A:B|services=a,b|
                                       communes=1,2 ("all" for the whole grid)

Produce snapshots with probesim -snapshot (add -window A:B for one slice of the
study week); analyze them with analyze -snapshot [-window A:B].
`

// infoJSON is the machine-readable `info -json` shape: one object per
// file, stable field names for CI assertions (the distributed smoke
// greps crc_ok instead of parsing the human text).
type infoJSON struct {
	File  string `json:"file"`
	Bins  int    `json:"bins"`
	Step  string `json:"step"`
	Start string `json:"start"`
	Geo   struct {
		Communes      int     `json:"communes"`
		Cities        int     `json:"cities"`
		Population    int     `json:"population"`
		OperatorShare float64 `json:"operator_share"`
		Seed          uint64  `json:"seed"`
	} `json:"geo"`
	Services      int `json:"services"`
	FormatVersion int `json:"format_version"`
	// Index summarizes a v2 footer index.
	Index           *indexJSON         `json:"index,omitempty"`
	Epochs          int                `json:"epochs"`
	Cells           int                `json:"cells"`
	OverflowCells   int                `json:"overflow_cells"`
	TotalBytes      map[string]float64 `json:"total_bytes"`
	ClassifiedBytes map[string]float64 `json:"classified_bytes"`
	Counters        struct {
		ControlMessages  int `json:"control_messages"`
		UserPlanePackets int `json:"user_plane_packets"`
		DecodeErrors     int `json:"decode_errors"`
		UnknownTEID      int `json:"unknown_teid"`
		UnknownCell      int `json:"unknown_cell"`
	} `json:"counters"`
	// CRCOk is true only after the whole file decoded and its CRC
	// trailer (and a v2 footer index) verified; a bad file emits
	// {"file":..., "error":...} instead, and info exits 1.
	CRCOk bool `json:"crc_ok"`
}

// indexJSON is the `info -json` view of a v2 footer index.
type indexJSON struct {
	Epochs         int `json:"epochs"`
	Cells          int `json:"cells"`
	FirstBin       int `json:"first_bin"`
	LastBin        int `json:"last_bin"`
	ServiceBitmaps int `json:"service_bitmaps"`
	CommuneBitmaps int `json:"commune_bitmaps"`
}

// indexSummary condenses a v2 footer index; nil for a v1 file, whose
// plain decode keeps no index.
func indexSummary(entries []rollup.IndexEntry) *indexJSON {
	if entries == nil {
		return nil
	}
	ix := &indexJSON{Epochs: len(entries), FirstBin: rollup.OverflowBin, LastBin: rollup.OverflowBin}
	for i := range entries {
		en := &entries[i]
		ix.Cells += en.Cells
		if ix.FirstBin == rollup.OverflowBin && en.Bin != rollup.OverflowBin {
			ix.FirstBin = en.Bin
		}
		if en.Bin != rollup.OverflowBin {
			ix.LastBin = en.Bin
		}
		if en.SvcBits != nil {
			ix.ServiceBitmaps++
		}
		if en.ComBits != nil {
			ix.CommuneBitmaps++
		}
	}
	return ix
}

// summarize decodes one snapshot end to end — structure, CRC and a v2
// footer index verified as it goes — into its info object; hdr is the
// decoded header the human rendering formats.
func summarize(path string) (info *infoJSON, hdr *rollup.Partial, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	d, err := rollup.NewDecoder(f)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	p := d.Header()
	info = &infoJSON{
		File: path, Bins: p.Cfg.Bins, Step: p.Cfg.Step.String(), Start: p.Cfg.Start.Format(time.RFC3339),
		Services: len(p.Services), FormatVersion: d.Version(), Epochs: d.EpochCount(),
		TotalBytes:      map[string]float64{"dl": p.TotalBytes[services.DL], "ul": p.TotalBytes[services.UL]},
		ClassifiedBytes: map[string]float64{"dl": p.ClassifiedBytes[services.DL], "ul": p.ClassifiedBytes[services.UL]},
	}
	info.Geo.Communes = p.Cfg.Geo.NumCommunes
	info.Geo.Cities = p.Cfg.Geo.NumCities
	info.Geo.Population = p.Cfg.Geo.Population
	info.Geo.OperatorShare = p.Cfg.Geo.OperatorShare
	info.Geo.Seed = p.Cfg.Geo.Seed
	info.Counters.ControlMessages = p.Counters.ControlMessages
	info.Counters.UserPlanePackets = p.Counters.UserPlanePackets
	info.Counters.DecodeErrors = p.Counters.DecodeErrors
	info.Counters.UnknownTEID = p.Counters.UnknownTEID
	info.Counters.UnknownCell = p.Counters.UnknownCell
	var buf []rollup.Cell
	for {
		ep, ok, err := d.Next(buf)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", path, err)
		}
		if !ok {
			break
		}
		info.Cells += len(ep.Cells)
		if ep.Bin == rollup.OverflowBin {
			info.OverflowCells = len(ep.Cells)
		}
		buf = ep.Cells
	}
	info.Index, info.CRCOk = indexSummary(d.Index()), true
	return info, p, nil
}

func runInfo(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := daemon.NewFlagSet("info", "", stderr)
	asJSON := fs.Bool("json", false, "emit one machine-readable JSON object per file")
	if err := daemon.Parse(fs, args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("info: no snapshot files given")
	}
	emit := func(v any) {
		out, _ := json.Marshal(v)
		fmt.Fprintln(stdout, string(out))
	}
	for _, path := range fs.Args() {
		info, p, err := summarize(path)
		switch {
		case err != nil:
			if *asJSON {
				emit(map[string]string{"file": path, "error": err.Error()})
			}
			return err
		case *asJSON:
			emit(info)
			continue
		}
		overflow := "no"
		if info.OverflowCells > 0 {
			overflow = fmt.Sprintf("yes (%d cells)", info.OverflowCells)
		}
		format := "v1 (no footer index)"
		if ix := info.Index; ix != nil {
			format = fmt.Sprintf("v2 (footer index: %d epochs, %d service + %d commune bitmaps)",
				ix.Epochs, ix.ServiceBitmaps, ix.CommuneBitmaps)
		}
		fmt.Fprintf(stdout, "%s:\n", path)
		fmt.Fprintf(stdout, "  format     %s\n", format)
		fmt.Fprintf(stdout, "  grid       %d bins of %v from %v\n", p.Cfg.Bins, p.Cfg.Step, p.Cfg.Start.Format("2006-01-02 15:04:05 MST"))
		fmt.Fprintf(stdout, "  geography  %d communes, %d cities, population %d, operator share %.2f, seed %d\n",
			p.Cfg.Geo.NumCommunes, p.Cfg.Geo.NumCities, p.Cfg.Geo.Population, p.Cfg.Geo.OperatorShare, p.Cfg.Geo.Seed)
		fmt.Fprintf(stdout, "  data       %d services, %d epochs (overflow: %s), %d cells\n",
			len(p.Services), info.Epochs, overflow, info.Cells)
		fmt.Fprintf(stdout, "  volume     total DL %s UL %s, classified DL %s UL %s\n",
			report.Bytes(p.TotalBytes[services.DL]), report.Bytes(p.TotalBytes[services.UL]),
			report.Bytes(p.ClassifiedBytes[services.DL]), report.Bytes(p.ClassifiedBytes[services.UL]))
		fmt.Fprintf(stdout, "  counters   %d control msgs, %d user-plane pkts, %d decode errors, %d unknown TEID, %d unknown cell\n",
			p.Counters.ControlMessages, p.Counters.UserPlanePackets,
			p.Counters.DecodeErrors, p.Counters.UnknownTEID, p.Counters.UnknownCell)
	}
	return nil
}

func runVerify(_ context.Context, paths []string, stdout, _ io.Writer) error {
	if len(paths) == 0 {
		return fmt.Errorf("verify: no snapshot files given")
	}
	for _, path := range paths {
		// ReadFile already enforces the structural invariants: magic,
		// limits, strict orderings, CRC, clean EOF.
		p, err := rollup.ReadFile(path)
		if err != nil {
			return err
		}
		if err := p.CheckTotals(); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		for d := range p.TotalBytes {
			if p.TotalBytes[d] < p.ClassifiedBytes[d] {
				return fmt.Errorf("%s: classified %v volume %.0f exceeds the total %.0f",
					path, services.Direction(d), p.ClassifiedBytes[d], p.TotalBytes[d])
			}
		}
		cellTotals := p.CellTotals()
		fmt.Fprintf(stdout, "%s: ok (%d services, %d epochs, %s classified)\n",
			path, len(p.Services), len(p.Epochs),
			report.Bytes(cellTotals[services.DL]+cellTotals[services.UL]))
	}
	return nil
}

func runMerge(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := daemon.NewFlagSet("merge", "", stderr)
	out := fs.String("o", "", "output snapshot file (required)")
	if err := daemon.Parse(fs, args); err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("merge: -o output file is required")
	}
	srcs := fs.Args()
	if len(srcs) == 0 {
		return fmt.Errorf("merge: no source snapshots given")
	}
	if err := rollup.MergeFiles(*out, srcs...); err != nil {
		return err
	}
	// Summarize without decoding an epoch: re-reading the whole file
	// would materialize every one and defeat the merger's streaming
	// memory bound on outputs bigger than RAM.
	x, err := rollup.OpenIndexed(*out)
	if err != nil {
		return err
	}
	defer x.Close()
	p := x.Header()
	fmt.Fprintf(stdout, "merged %d snapshots into %s: %d bins of %v from %v, %d services, %d epochs\n",
		len(srcs), *out, p.Cfg.Bins, p.Cfg.Step, p.Cfg.Start.Format("2006-01-02 15:04:05 MST"),
		len(p.Services), x.EpochCount())
	return nil
}

func runWindow(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := daemon.NewFlagSet("window", "", stderr)
	from := fs.Int("from", -1, "first bin of the window (inclusive)")
	to := fs.Int("to", -1, "end bin of the window (exclusive)")
	day := fs.Int("day", -1, "calendar day to cut (day 0 starts at the grid start; overrides -from/-to)")
	out := fs.String("o", "", "output snapshot file (required)")
	if err := daemon.Parse(fs, args); err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("window: -o output file is required")
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("window: exactly one source snapshot expected, got %d", fs.NArg())
	}
	p, err := rollup.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	var w *rollup.Partial
	if *day >= 0 {
		w, err = p.DayWindow(*day)
	} else {
		if *from < 0 || *to < 0 {
			return fmt.Errorf("window: give -from and -to (bins), or -day")
		}
		w, err = p.Window(*from, *to)
	}
	if err != nil {
		return err
	}
	if err := rollup.WriteFile(*out, w); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote window of %s to %s: %d bins of %v from %v, %d services, %d epochs\n",
		fs.Arg(0), *out, w.Cfg.Bins, w.Cfg.Step, w.Cfg.Start.Format("2006-01-02 15:04:05 MST"),
		len(w.Services), len(w.Epochs))
	return nil
}

// runQuery answers an analytical query over an on-disk store: paths
// (snapshot files and/or directories of *.roll) open as one
// rollup.Catalog, the view cuts out through the footer-index planner,
// and the result lands as its own v2 snapshot.
func runQuery(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := daemon.NewFlagSet("query", "", stderr)
	window := fs.String("window", "", "bin window A:B on the store's union grid (default: all bins)")
	svcList := fs.String("services", "", "comma-separated service names to keep (default: all)")
	comList := fs.String("communes", "", "comma-separated commune ids to keep (default: all)")
	stats := fs.Bool("stats", false, "emit the planner's stats JSON on stderr")
	out := fs.String("o", "", "output snapshot file (required)")
	if err := daemon.Parse(fs, args); err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("query: -o output file is required")
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("query: no snapshot files or directories given")
	}
	// The flags are the segments of the wire form of a view spec.
	arg := *window
	if *svcList != "" {
		arg += "|services=" + *svcList
	}
	if *comList != "" {
		arg += "|communes=" + *comList
	}
	spec, err := rollup.ParseViewSpec(arg)
	if err != nil {
		return err
	}
	c, err := catalog.Open(fs.Args()...)
	if err != nil {
		return err
	}
	defer c.Close()
	part, st, err := c.Query(spec)
	if err != nil {
		return err
	}
	if err := rollup.WriteFile(*out, part); err != nil {
		return err
	}
	if *stats {
		js, _ := json.Marshal(st)
		fmt.Fprintln(stderr, string(js))
	}
	fmt.Fprintf(stdout, "wrote query %s over %d files to %s: %d bins, %d services, %d epochs (decoded %d of %d epochs, pruned %d files)\n",
		spec, st.Files, *out, part.Cfg.Bins, len(part.Services), len(part.Epochs),
		st.EpochsDecoded, st.EpochsTotal, st.FilesPruned)
	return nil
}

// runServe runs the store-backed ctl daemon until ctx is cancelled
// (SIGINT/SIGTERM).
func runServe(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := daemon.NewFlagSet("serve", "", stderr)
	ctlAddr := fs.String("ctl", "", "address to answer the ctl protocol on (required)")
	metricsAddr := fs.String("metrics", "", "serve /metrics, /debug/vars and pprof on this address")
	verbose := fs.Bool("v", false, "log debug detail")
	quiet := fs.Bool("quiet", false, "log only errors")
	if err := daemon.Parse(fs, args); err != nil {
		return err
	}
	if *ctlAddr == "" {
		return fmt.Errorf("serve: -ctl listen address is required")
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("serve: no snapshot files or directories given")
	}
	log := obs.NewLogger(stderr, "rollupctl", obs.LevelFromFlags(*verbose, *quiet))
	s, err := catalog.NewServer(*ctlAddr, nil, fs.Args()...)
	if err != nil {
		return err
	}
	defer s.Close()
	closeMetrics, err := daemon.ServeMetrics(*metricsAddr, s.Registry(), log)
	if err != nil {
		return err
	}
	defer closeMetrics()
	log.Infof("serving %d paths on %s (status/snapshot/window/query/metrics; fetch with rollupctl fetch)",
		fs.NArg(), s.Addr())
	<-ctx.Done()
	return nil
}

// runUpgrade rewrites a v1 snapshot as v2: identical payload bytes,
// the footer index appended.
func runUpgrade(_ context.Context, args []string, stdout, _ io.Writer) error {
	if len(args) != 2 {
		return fmt.Errorf("upgrade: usage: rollupctl upgrade src.roll dst.roll")
	}
	if err := rollup.UpgradeFile(args[0], args[1]); err != nil {
		return err
	}
	x, err := rollup.OpenIndexed(args[1])
	if err != nil {
		return err
	}
	defer x.Close()
	fmt.Fprintf(stdout, "upgraded %s to %s: format v%d, %d epochs indexed\n",
		args[0], args[1], x.Version(), x.EpochCount())
	return nil
}

// runFetch is the operator side of the internal/ctl protocol, against
// aggd -ctl or rollupctl serve alike: one request, one reply (a rollup
// snapshot, status JSON, or the metric registry JSON).
func runFetch(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := daemon.NewFlagSet("fetch", "", stderr)
	from := fs.String("from", "", "ctl address of a running aggd (-ctl) or rollupctl serve (required)")
	window := fs.String("window", "", "fetch only bins A:B of the aggregate")
	query := fs.String("query", "", "fetch a filtered view: A:B|services=a,b|communes=1,2 (\"all\" for the whole grid)")
	status := fs.Bool("status", false, "fetch the aggregator's status (human table; -json for the raw JSON)")
	metrics := fs.Bool("metrics", false, "fetch the daemon's metric registry (human listing; -json for the raw JSON)")
	conserve := fs.Bool("conserve", false, "fetch metrics and fail unless applied cell bytes equal the fold's (aggd only)")
	asJSON := fs.Bool("json", false, "with -status/-metrics: print the raw JSON instead of the human rendering")
	out := fs.String("o", "", "output file (default: stdout for -status/-metrics, required otherwise)")
	timeout := fs.Duration("timeout", 30*time.Second, "connect/read deadline")
	if err := daemon.Parse(fs, args); err != nil {
		return err
	}
	if *from == "" {
		return fmt.Errorf("fetch: -from ctl address is required")
	}
	var reqs []string
	if *status {
		reqs = append(reqs, "status")
	}
	if *metrics || *conserve {
		reqs = append(reqs, "metrics")
	}
	if *window != "" {
		reqs = append(reqs, "window "+*window)
	}
	if *query != "" {
		reqs = append(reqs, "query|"+*query)
	}
	if len(reqs) > 1 {
		return fmt.Errorf("fetch: -status, -metrics/-conserve, -window and -query are mutually exclusive")
	}
	req := "snapshot"
	if len(reqs) == 1 {
		req = reqs[0]
	}
	textMode := *status || *metrics || *conserve
	if *out == "" && !textMode {
		return fmt.Errorf("fetch: -o output file is required (snapshots are binary)")
	}
	client := &ctl.Client{Addr: *from, Timeout: *timeout}

	// The reply streams to memory for the text verbs' renderers, to -o
	// through one atomic commit, or (text verb with -o) both.
	var body bytes.Buffer
	if *out == "" {
		if _, err := client.Stream(req, &body); err != nil {
			return fmt.Errorf("fetch: %w", err)
		}
	} else {
		var n int64
		err := chaos.WriteAtomic(chaos.OS, *out, func(w io.Writer) (err error) {
			if textMode {
				w = io.MultiWriter(w, &body)
			}
			n, err = client.Stream(req, w)
			return err
		})
		if err != nil {
			return fmt.Errorf("fetch: %w", err)
		}
		fmt.Fprintf(stdout, "fetched %d bytes from %s to %s\n", n, *from, *out)
		if !*conserve {
			return nil
		}
	}
	switch {
	case *conserve:
		if err := epochwire.CheckScrapeConservation(body.Bytes(), stdout); err != nil {
			return fmt.Errorf("fetch: %w", err)
		}
		return nil
	case *asJSON:
		fmt.Fprintf(stdout, "%s\n", body.Bytes())
		return nil
	case *status:
		return renderStatus(body.Bytes(), stdout)
	default:
		return renderMetrics(body.Bytes(), stdout)
	}
}

// renderStatus prints the aggregator's status JSON as a per-probe
// table: cursor positions, frontier lag, cursor age, liveness.
func renderStatus(body []byte, stdout io.Writer) error {
	var st epochwire.Status
	if err := json.Unmarshal(body, &st); err != nil {
		return fmt.Errorf("fetch: undecodable status reply: %w", err)
	}
	state := "collecting"
	if st.Draining {
		state = "draining"
	}
	fmt.Fprintf(stdout, "%s: %d probes, sealed through bin %d\n", state, len(st.Probes), st.SealedThrough)
	if len(st.Probes) == 0 {
		return nil
	}
	rows := [][]string{}
	for _, p := range st.Probes {
		conn := "no"
		if p.Connected {
			conn = "yes"
		}
		fin := ""
		if p.Fin {
			fin = "fin"
		}
		age := "-"
		if p.AgeSeconds >= 0 {
			age = fmt.Sprintf("%.0fs", p.AgeSeconds)
		}
		rows = append(rows, []string{
			p.ID, strconv.FormatUint(p.Applied, 10), strconv.FormatUint(p.Durable, 10),
			strconv.FormatUint(p.Watermark, 10), strconv.Itoa(p.Lag), age, conn,
			strconv.Itoa(p.Epochs), fin,
		})
	}
	fmt.Fprintln(stdout, report.Table(
		[]string{"probe", "applied", "durable", "watermark", "lag", "age", "connected", "epochs", "state"}, rows))
	return nil
}

// renderMetrics prints the registry JSON one metric per line, sorted;
// histograms compress to count/sum. Numbers print as the daemon wrote
// them (json.Number), not through float64's exponent notation.
func renderMetrics(body []byte, stdout io.Writer) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	var reg map[string]any
	if err := dec.Decode(&reg); err != nil {
		return fmt.Errorf("fetch: undecodable metrics reply: %w", err)
	}
	names := make([]string, 0, len(reg))
	for name := range reg {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		switch v := reg[name].(type) {
		case map[string]any:
			fmt.Fprintf(stdout, "%s count=%v sum=%v\n", name, v["count"], v["sum"])
		default:
			fmt.Fprintf(stdout, "%s %v\n", name, v)
		}
	}
	return nil
}
