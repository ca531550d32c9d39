// Multiday: the paper's dataset is not one capture — it is weeks of
// nationwide traffic collected day by day and analyzed whole and in
// slices (weekday vs weekend, per region). This example reproduces
// that collection model end to end with the snapshot algebra: two
// half-week captures are measured independently — each simulated in
// its own observation window and aggregated by its own probe run on
// its own sub-grid — merged onto the union week grid with the
// time-extension merge, and then sliced back into weekend and weekday
// dataset views for the analysis API. No raw frames survive any step.
//
//	go test -v -run Example ./examples/multiday
package multiday

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/dpi"
	"repro/internal/geo"
	"repro/internal/gtpsim"
	"repro/internal/probe"
	"repro/internal/report"
	"repro/internal/rollup"
	"repro/internal/services"
)

func Example() {
	country := geo.Generate(geo.SmallConfig())
	catalog := services.Catalog()
	half := daemon.WeekBins / 2

	// One collection unit: simulate sessions starting inside the
	// window, measure them on the window's sub-grid (plus slack for
	// session tails), seal the rollup.
	collect := func(winFrom, winTo int) *rollup.Partial {
		// Seed 11 is shared: both halves see one cell registry.
		sim, err := gtpsim.New(country, catalog, daemon.SimConfig(400, 11, winFrom, winTo))
		if err != nil {
			log.Fatal(err)
		}
		pcfg := daemon.ProbeConfig(winFrom, winTo)
		pl := probe.NewPipeline(pcfg, sim.Cells, dpi.NewClassifier(catalog), 2)
		col := rollup.NewCollector(rollup.ConfigFrom(pcfg, geo.SmallConfig()), pl.Shards())
		rep, err := pl.WithSinks(col.Sink).Run(sim.Stream())
		if err != nil {
			log.Fatal(err)
		}
		part, err := col.Finish(rep)
		if err != nil {
			log.Fatal(err)
		}
		return part
	}

	fmt.Println("Collecting two independent half-week captures...")
	first := collect(0, half)
	second := collect(half, daemon.WeekBins)
	fmt.Printf("  first half:  %d epochs on a %d-bin grid\n", len(first.Epochs), first.Cfg.Bins)
	fmt.Printf("  second half: %d epochs on a %d-bin grid\n", len(second.Epochs), second.Cfg.Bins)

	// Time-extension merge: the second half's grid is re-binned onto
	// the union week grid; overlapping spill bins sum exactly.
	if err := first.Append(second); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("merged: %d epochs across %d bins (%v per bin), %d services\n\n",
		len(first.Epochs), first.Cfg.Bins, first.Cfg.Step, len(first.Services))

	// Windowed dataset views: the study week starts on a Saturday, so
	// the weekend is the first two days and the weekdays the rest.
	bpd, err := first.Cfg.DayBins()
	if err != nil {
		log.Fatal(err)
	}
	weekend, err := rollup.Window(first, 0, 2*bpd)
	if err != nil {
		log.Fatal(err)
	}
	weekdays, err := rollup.Window(first, 2*bpd, first.Cfg.Bins)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Per-slice downlink volume and daily rate through the analysis API:")
	slices := []struct {
		name string
		days float64
		ds   core.Dataset
	}{{"weekend", 2, weekend}, {"weekdays", 5, weekdays}}
	for _, sl := range slices {
		var total float64
		for s := range sl.ds.Services() {
			total += sl.ds.NationalTotal(services.DL, s)
		}
		fmt.Printf("  %-8s %8s over %d services (%s/day)\n", sl.name,
			report.Bytes(total), len(sl.ds.Services()), report.Bytes(total/sl.days))
	}

	// The slice views expose the full dataset API, so any per-service
	// question works per slice — here, the weekend/weekday balance of
	// the biggest weekend services.
	fmt.Println("\nWeekend share of each service's downlink volume:")
	type row struct {
		name  string
		we, t float64
	}
	var rows []row
	for s, svc := range weekend.Services() {
		we := weekend.NationalTotal(services.DL, s)
		t := we
		if wdIdx, err := weekdays.ServiceIndex(svc.Name); err == nil {
			t += weekdays.NationalTotal(services.DL, wdIdx)
		}
		rows = append(rows, row{svc.Name, we, t})
	}
	for i := 0; i < len(rows) && i < 5; i++ {
		r := rows[i]
		fmt.Printf("  %-14s %6s of %6s (%5.1f%%)\n", r.name,
			report.Bytes(r.we), report.Bytes(r.t), 100*r.we/r.t)
	}

	// Output:
	// Collecting two independent half-week captures...
	//   first half:  263 epochs on a 339-bin grid
	//   second half: 251 epochs on a 336-bin grid
	// merged: 514 epochs across 672 bins (15m0s per bin), 20 services
	//
	// Per-slice downlink volume and daily rate through the analysis API:
	//   weekend   6.17 MB over 20 services (3.08 MB/day)
	//   weekdays 15.02 MB over 20 services (3.00 MB/day)
	//
	// Weekend share of each service's downlink volume:
	//   YouTube        2.40 MB of 8.04 MB ( 29.9%)
	//   iTunes         1.07 MB of 2.94 MB ( 36.5%)
	//   Facebook Video 406.93 KB of 1.55 MB ( 25.6%)
	//   Instagram video 515.12 KB of 1.23 MB ( 40.9%)
	//   Netflix        220.47 KB of 692.04 KB ( 31.9%)
}
