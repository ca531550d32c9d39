// Slicing: the paper motivates its study with 5G network slicing —
// "an effective orchestration of network slices builds on the spatial
// complementarity of the demands for the different services". This
// example quantifies that: it dimensions per-category slices from the
// per-service time series and measures the multiplexing gain of
// pooling them, which can only come from categories peaking at
// different topical times (Fig. 6). On the small synthetic country the
// gain is 1.00x: the category peaks nearly coincide.
//
//	go test -v -run Example ./examples/slicing
package slicing

import (
	"fmt"
	"log"
	"sort"
	"strings"

	"repro/internal/report"
	"repro/internal/services"
	"repro/internal/synth"
	"repro/internal/timeseries"
)

func Example() {
	ds, err := synth.Generate(synth.SmallConfig())
	if err != nil {
		log.Fatal(err)
	}

	// Group the national downlink series into slices by category,
	// reading the dataset through the backend-agnostic accessors.
	slices := map[services.Category]*timeseries.Series{}
	for s := range ds.Services() {
		cat := ds.Services()[s].Category
		cur := slices[cat]
		if cur == nil {
			slices[cat] = ds.NationalSeries(services.DL, s).Clone()
			continue
		}
		if err := cur.Add(ds.NationalSeries(services.DL, s)); err != nil {
			log.Fatal(err)
		}
	}

	// A slice dimensioned in isolation must provision its own peak;
	// pooled slices share capacity sized by the peak of the sum.
	type row struct {
		cat  services.Category
		peak float64
		mean float64
	}
	var rows []row
	var sumOfPeaks float64
	total := timeseries.NewWeek(ds.SampleStep())
	for cat, s := range slices {
		peak, _ := s.Max()
		rows = append(rows, row{cat, peak, s.Mean()})
		sumOfPeaks += peak
		if err := total.Add(s); err != nil {
			log.Fatal(err)
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].peak > rows[j].peak })

	table := make([][]string, 0, len(rows))
	for _, r := range rows {
		table = append(table, []string{
			r.cat.String(),
			report.Bytes(r.peak),
			report.Bytes(r.mean),
			fmt.Sprintf("%.2f", r.peak/r.mean),
		})
	}
	fmt.Println("Per-slice dimensioning (peak capacity per 15-minute bin):")
	printTrimmed(report.Table([]string{"slice", "peak", "mean", "peak/mean"}, table))

	pooledPeak, at := total.Max()
	fmt.Printf("sum of isolated slice peaks: %s\n", report.Bytes(sumOfPeaks))
	fmt.Printf("peak of pooled traffic:      %s (at %s)\n",
		report.Bytes(pooledPeak), total.TimeAt(at).Format("Mon 15:04"))
	gain := sumOfPeaks / pooledPeak
	fmt.Printf("multiplexing gain:           %.2fx\n\n", gain)
	fmt.Printf("Pooling the slices saves %.1f%% of their isolated capacity; a gain\n", 100*(1-pooledPeak/sumOfPeaks))
	fmt.Println("can only come from categories peaking at different topical times")
	fmt.Println("(Fig. 6).")

	// Output:
	// Per-slice dimensioning (peak capacity per 15-minute bin):
	// slice            peak       mean       peak/mean
	// ------------------------------------------------
	// Video streaming  427.73 GB  191.24 GB  2.24
	// Social network   72.85 GB   31.18 GB   2.34
	// Web              35.65 GB   14.97 GB   2.38
	// Messaging        24.84 GB   11.23 GB   2.21
	// Audio streaming  24.34 GB   11.23 GB   2.17
	// App store        21.90 GB   10.39 GB   2.11
	// Adult            11.61 GB   5.82 GB    1.99
	// Cloud            8.28 GB    4.57 GB    1.81
	// Gaming           6.31 GB    3.33 GB    1.90
	//
	// sum of isolated slice peaks: 633.49 GB
	// peak of pooled traffic:      630.96 GB (at Wed 13:00)
	// multiplexing gain:           1.00x
	//
	// Pooling the slices saves 0.4% of their isolated capacity; a gain
	// can only come from categories peaking at different topical times
	// (Fig. 6).
}

// printTrimmed prints s without trailing blanks on its lines, which an
// Output comment cannot hold.
func printTrimmed(s string) {
	for _, line := range strings.Split(s, "\n") {
		fmt.Println(strings.TrimRight(line, " "))
	}
}
