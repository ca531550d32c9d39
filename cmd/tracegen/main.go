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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/capture"
	"repro/internal/daemon"
	"repro/internal/geo"
	"repro/internal/gtpsim"
	"repro/internal/report"
	"repro/internal/services"
	"repro/internal/synth"
)

func main() {
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), `tracegen: persist synthetic study data for external tooling and replay

Modes (flag defaults below):
  (default)            write CSV aggregates of a synthetic dataset to -out
  -trace file          record a gtpsim packet capture as a binary trace
                       (replay with probesim -trace, same -seed)
  -replay file         summarize a recorded binary trace and exit

-seed and -sessions are shared with probesim; -quiet reduces output to
the essentials for CI use.

`)
		flag.PrintDefaults()
	}
	out := flag.String("out", "trace-out", "output directory (CSV mode)")
	scale := flag.String("scale", "small", "dataset scale: small | full (CSV mode; -trace always records the small country)")
	seed := flag.Uint64("seed", 1, "generator / simulation seed")
	trace := flag.String("trace", "", "record a gtpsim packet capture to this binary trace file instead of CSV aggregates")
	sessions := flag.Int("sessions", 2000, "sessions to simulate in -trace mode")
	replay := flag.String("replay", "", "summarize a recorded binary trace and exit")
	quiet := flag.Bool("quiet", false, "print only the essential summary line (CI mode)")
	flag.Parse()

	if *replay != "" {
		summarize(*replay, *quiet)
		return
	}
	if *trace != "" {
		record(*trace, *sessions, *seed, *quiet)
		return
	}

	cfg := synth.SmallConfig()
	if *scale == "full" {
		cfg = synth.DefaultConfig()
	}
	cfg.Seed = *seed

	ds, err := synth.Generate(cfg)
	if err != nil {
		fail(err)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fail(err)
	}

	write(*out, "communes.csv", func(w *bufio.Writer) {
		fmt.Fprintln(w, "id,x_km,y_km,population,subscribers,class,coverage")
		for i := range ds.Country.Communes {
			c := &ds.Country.Communes[i]
			fmt.Fprintf(w, "%d,%.2f,%.2f,%d,%d,%s,%s\n",
				c.ID, c.Center.X, c.Center.Y, c.Population, c.Subscribers,
				c.Urbanization, c.Coverage)
		}
	})

	write(*out, "national.csv", func(w *bufio.Writer) {
		fmt.Fprintln(w, "service,direction,sample,bytes")
		for dir := services.Direction(0); dir < services.NumDirections; dir++ {
			for s := range ds.Catalog {
				for i, v := range ds.National[dir][s].Values {
					fmt.Fprintf(w, "%s,%s,%d,%.0f\n", ds.Catalog[s].Name, dir, i, v)
				}
			}
		}
	})

	write(*out, "spatial.csv", func(w *bufio.Writer) {
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
	})

	write(*out, "ranking.csv", func(w *bufio.Writer) {
		fmt.Fprintln(w, "rank,direction,weekly_bytes")
		for dir := services.Direction(0); dir < services.NumDirections; dir++ {
			vols := ds.AllVolumes(dir)
			for i, v := range vols {
				fmt.Fprintf(w, "%d,%s,%.3g\n", i+1, dir, v)
			}
		}
	})

	fmt.Printf("wrote dataset (%d communes, %d services) to %s\n",
		len(ds.Country.Communes), cfg.TotalServices, *out)
}

// record streams a simulated capture into the binary trace format.
// Nothing is materialized: the simulator emits one session at a time
// and the writer appends records as they arrive.
func record(path string, sessions int, seed uint64, quiet bool) {
	country := geo.Generate(geo.SmallConfig())
	catalog := services.Catalog()
	sim, err := gtpsim.New(country, catalog, daemon.SimConfig(sessions, seed, 0, daemon.WeekBins))
	if err != nil {
		fail(err)
	}
	f, err := os.Create(path)
	if err != nil {
		fail(err)
	}
	w, err := capture.NewWriter(f)
	if err != nil {
		fail(err)
	}
	st := sim.Stream()
	n, err := capture.Copy(w, st)
	if err != nil {
		fail(err)
	}
	if err := f.Close(); err != nil {
		fail(err)
	}
	truth := st.Stats()
	fmt.Printf("recorded %d frames (%d sessions, DL %s, UL %s, seed %d) to %s\n",
		n, truth.Sessions, report.Bytes(truth.BytesDL), report.Bytes(truth.BytesUL), seed, path)
	if !quiet {
		fmt.Printf("replay with: probesim -trace %s -seed %d\n", path, seed)
	}
}

// summarize streams a recorded trace and prints its envelope together
// with the replay throughput, so a trace run doubles as a quick
// end-to-end perf probe of the decode path.
func summarize(path string, quiet bool) {
	f, err := os.Open(path)
	if err != nil {
		fail(err)
	}
	defer f.Close()
	rd, err := capture.NewReader(f)
	if err != nil {
		fail(err)
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
			fail(err)
		}
		if n == 0 {
			firstAt = fr.Time
		}
		lastAt = fr.Time
		n++
		bytes += len(fr.Data)
	}
	elapsed := time.Since(begin)
	fmt.Printf("%s: %d frames, %s on the wire\n", path, n, report.Bytes(float64(bytes)))
	// Timing is machine-dependent, so quiet (CI) mode keeps only the
	// deterministic envelope line above.
	if secs := elapsed.Seconds(); secs > 0 && !quiet {
		fmt.Printf("replayed in %v: %.0f frames/s, %.0f MB/s\n",
			elapsed.Round(time.Millisecond), float64(n)/secs, float64(bytes)/secs/1e6)
	}
	if n > 0 && !quiet {
		fmt.Printf("first frame %s, last frame %s\n",
			firstAt.Format("2006-01-02 15:04:05.000"), lastAt.Format("2006-01-02 15:04:05.000"))
	}
}

func write(dir, name string, fill func(*bufio.Writer)) {
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		fail(err)
	}
	w := bufio.NewWriter(f)
	fill(w)
	if err := w.Flush(); err != nil {
		fail(err)
	}
	if err := f.Close(); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
