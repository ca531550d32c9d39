// Command tracegen generates a synthetic nationwide dataset and
// persists its aggregates as CSV files, so external tooling (or a
// rerun of the analysis) can consume the exact same data.
//
// Outputs in -out:
//
//	communes.csv   id, x_km, y_km, population, subscribers, class, coverage
//	national.csv   service, direction, sample_index, bytes
//	spatial.csv    service, direction, commune_id, weekly_bytes
//	ranking.csv    rank, direction, weekly_bytes (full 500-service population)
//
// With -trace it instead records the packet plane: a gtpsim workload
// is streamed frame by frame into the binary trace format of
// internal/capture (memory stays O(1) in frame count), replayable with
// cmd/probesim -trace or inspectable with -replay.
package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/capture"
	"repro/internal/chaos"
	"repro/internal/daemon"
	"repro/internal/geo"
	"repro/internal/gtpsim"
	"repro/internal/report"
	"repro/internal/services"
	"repro/internal/synth"
)

func main() {
	os.Exit(run(daemon.SignalContext("tracegen"), os.Args[1:], os.Stdout, os.Stderr))
}

const usage = `tracegen: persist synthetic study data for external tooling and replay

Modes (flag defaults below):
  (default)            write CSV aggregates of a synthetic dataset to -out
  -trace file          record a gtpsim packet capture as a binary trace
                       (replay with probesim -trace, same -seed)
  -replay file         summarize a recorded binary trace and exit

-seed and -sessions are shared with probesim; -quiet reduces output to
the essentials for CI use.

`

// run is the whole program, returning its exit code. Cancelling ctx
// (the first SIGINT/SIGTERM) ends a -trace recording at the frame it
// has reached: the file is a valid, shorter trace and the exit code 0.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := daemon.NewFlagSet("tracegen", usage, stderr)
	out := fs.String("out", "trace-out", "output directory (CSV mode)")
	scale := fs.String("scale", "small", "dataset scale: small | full (CSV mode; -trace always records the small country)")
	seed := fs.Uint64("seed", 1, "generator / simulation seed")
	trace := fs.String("trace", "", "record a gtpsim packet capture to this binary trace file instead of CSV aggregates")
	sessions := fs.Int("sessions", 2000, "sessions to simulate in -trace mode")
	replay := fs.String("replay", "", "summarize a recorded binary trace and exit")
	quiet := fs.Bool("quiet", false, "print only the essential summary line (CI mode)")
	if err := daemon.Parse(fs, args); err != nil {
		return daemon.Exit(stderr, err)
	}
	switch {
	case *replay != "":
		return daemon.Exit(stderr, summarize(stdout, *replay, *quiet))
	case *trace != "":
		return daemon.Exit(stderr, record(ctx, stdout, *trace, *sessions, *seed, *quiet))
	}
	return daemon.Exit(stderr, writeCSVs(stdout, *out, *scale, *seed))
}

// writeCSVs generates the synthetic dataset and persists its
// aggregates under out.
func writeCSVs(stdout io.Writer, out, scale string, seed uint64) error {
	cfg := synth.SmallConfig()
	if scale == "full" {
		cfg = synth.DefaultConfig()
	}
	cfg.Seed = seed

	ds, err := synth.Generate(cfg)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}

	tables := []struct {
		name string
		fill func(*bufio.Writer)
	}{{"communes.csv", func(w *bufio.Writer) {
		fmt.Fprintln(w, "id,x_km,y_km,population,subscribers,class,coverage")
		for i := range ds.Country.Communes {
			c := &ds.Country.Communes[i]
			fmt.Fprintf(w, "%d,%.2f,%.2f,%d,%d,%s,%s\n",
				c.ID, c.Center.X, c.Center.Y, c.Population, c.Subscribers,
				c.Urbanization, c.Coverage)
		}
	}}, {"national.csv", func(w *bufio.Writer) {
		fmt.Fprintln(w, "service,direction,sample,bytes")
		for dir := services.Direction(0); dir < services.NumDirections; dir++ {
			for s := range ds.Catalog {
				for i, v := range ds.National[dir][s].Values {
					fmt.Fprintf(w, "%s,%s,%d,%.0f\n", ds.Catalog[s].Name, dir, i, v)
				}
			}
		}
	}}, {"spatial.csv", func(w *bufio.Writer) {
		fmt.Fprintln(w, "service,direction,commune,weekly_bytes")
		for dir := services.Direction(0); dir < services.NumDirections; dir++ {
			for s := range ds.Catalog {
				for c, v := range ds.Spatial[dir][s] {
					if v > 0 {
						fmt.Fprintf(w, "%s,%s,%d,%.0f\n", ds.Catalog[s].Name, dir, c, v)
					}
				}
			}
		}
	}}, {"ranking.csv", func(w *bufio.Writer) {
		fmt.Fprintln(w, "rank,direction,weekly_bytes")
		for dir := services.Direction(0); dir < services.NumDirections; dir++ {
			vols := ds.AllVolumes(dir)
			for i, v := range vols {
				fmt.Fprintf(w, "%d,%s,%.3g\n", i+1, dir, v)
			}
		}
	}}}
	for _, t := range tables {
		if err := write(out, t.name, t.fill); err != nil {
			return err
		}
	}
	fmt.Fprintf(stdout, "wrote dataset (%d communes, %d services) to %s\n",
		len(ds.Country.Communes), cfg.TotalServices, out)
	return nil
}

// record streams a simulated capture into the binary trace format.
// Nothing is materialized: the simulator emits one session at a time
// and the writer appends records as they arrive.
func record(ctx context.Context, stdout io.Writer, path string, sessions int, seed uint64, quiet bool) error {
	country := geo.Generate(geo.SmallConfig())
	catalog := services.Catalog()
	sim, err := gtpsim.New(country, catalog, daemon.SimConfig(sessions, seed, 0, daemon.WeekBins))
	if err != nil {
		return err
	}
	st := sim.Stream()
	src := capture.NewStopSource(st)
	defer context.AfterFunc(ctx, src.Stop)()
	var n int
	err = chaos.WriteAtomic(chaos.OS, path, func(f io.Writer) error {
		w, err := capture.NewWriter(f)
		if err == nil {
			n, err = capture.Copy(w, src)
		}
		return err
	})
	if err != nil {
		return err
	}
	truth := st.Stats()
	fmt.Fprintf(stdout, "recorded %d frames (%d sessions, DL %s, UL %s, seed %d) to %s\n",
		n, truth.Sessions, report.Bytes(truth.BytesDL), report.Bytes(truth.BytesUL), seed, path)
	if !quiet {
		fmt.Fprintf(stdout, "replay with: probesim -trace %s -seed %d\n", path, seed)
	}
	return nil
}

// summarize streams a recorded trace and prints its envelope together
// with the replay throughput, so a trace run doubles as a quick
// end-to-end perf probe of the decode path.
func summarize(stdout io.Writer, path string, quiet bool) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	rd, err := capture.NewReader(f)
	if err != nil {
		return err
	}
	var n, bytes int
	var firstAt, lastAt time.Time
	begin := time.Now()
	for {
		fr, err := rd.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return err
		}
		if n == 0 {
			firstAt = fr.Time
		}
		lastAt = fr.Time
		n++
		bytes += len(fr.Data)
	}
	elapsed := time.Since(begin)
	fmt.Fprintf(stdout, "%s: %d frames, %s on the wire\n", path, n, report.Bytes(float64(bytes)))
	// Timing is machine-dependent, so quiet (CI) mode keeps only the
	// deterministic envelope line above.
	if secs := elapsed.Seconds(); secs > 0 && !quiet {
		fmt.Fprintf(stdout, "replayed in %v: %.0f frames/s, %.0f MB/s\n",
			elapsed.Round(time.Millisecond), float64(n)/secs, float64(bytes)/secs/1e6)
	}
	if n > 0 && !quiet {
		fmt.Fprintf(stdout, "first frame %s, last frame %s\n",
			firstAt.Format("2006-01-02 15:04:05.000"), lastAt.Format("2006-01-02 15:04:05.000"))
	}
	return nil
}

func write(dir, name string, fill func(*bufio.Writer)) error {
	return chaos.WriteAtomic(chaos.OS, filepath.Join(dir, name), func(f io.Writer) error {
		w := bufio.NewWriter(f)
		fill(w)
		return w.Flush()
	})
}
