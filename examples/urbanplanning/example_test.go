// Urbanplanning: the paper notes its characterization "allows
// observing social phenomena at unprecedented scales" relevant to
// urban development and planning. This example inverts the study's
// logic: given only a commune's anonymous service-usage vector, infer
// its land-use class by comparing against the per-class signatures —
// mobile demand as a land-use sensor.
//
//	go test -v -run Example ./examples/urbanplanning
package urbanplanning

import (
	"fmt"
	"log"
	"strings"

	"repro/internal/geo"
	"repro/internal/report"
	"repro/internal/services"
	"repro/internal/stats"
	"repro/internal/synth"
)

func Example() {
	ds, err := synth.Generate(synth.SmallConfig())
	if err != nil {
		log.Fatal(err)
	}
	country := ds.Geography()
	nSvc := len(ds.Services())

	// Per-class mean per-user usage vector (the "signature").
	classSig := make(map[geo.Urbanization][]float64)
	classSubs := map[geo.Urbanization]float64{}
	for u := 0; u < geo.NumUrbanization; u++ {
		classSig[geo.Urbanization(u)] = make([]float64, nSvc)
	}
	for s := 0; s < nSvc; s++ {
		spatial := ds.SpatialVolumes(services.DL, s)
		for c := range country.Communes {
			u := country.Communes[c].Urbanization
			classSig[u][s] += spatial[c]
		}
	}
	for c := range country.Communes {
		classSubs[country.Communes[c].Urbanization] += float64(country.Communes[c].Subscribers)
	}
	for u, sig := range classSig {
		for s := range sig {
			sig[s] /= classSubs[u]
		}
	}

	// Classify every commune by nearest signature (log-space cosine via
	// Pearson correlation on per-user vectors).
	correct, total := 0, 0
	confusion := map[geo.Urbanization]map[geo.Urbanization]int{}
	perUser := make([][]float64, nSvc)
	for s := 0; s < nSvc; s++ {
		perUser[s] = ds.PerUser(services.DL, s)
	}
	for c := range country.Communes {
		vec := make([]float64, nSvc)
		var mass float64
		for s := 0; s < nSvc; s++ {
			vec[s] = perUser[s][c]
			mass += vec[s]
		}
		if mass == 0 {
			continue // dormant commune: no signal to classify
		}
		best, bestScore := geo.Urban, -2.0
		for u := 0; u < geo.NumUrbanization; u++ {
			// Similarity: correlation of the usage mix plus a volume
			// prior (total per-user demand separates classes strongly).
			r, err := stats.Pearson(vec, classSig[geo.Urbanization(u)])
			if err != nil {
				continue
			}
			volRatio := mass / sum(classSig[geo.Urbanization(u)])
			if volRatio > 1 {
				volRatio = 1 / volRatio
			}
			score := r*0.3 + volRatio*0.7
			if score > bestScore {
				best, bestScore = geo.Urbanization(u), score
			}
		}
		truth := country.Communes[c].Urbanization
		if confusion[truth] == nil {
			confusion[truth] = map[geo.Urbanization]int{}
		}
		confusion[truth][best]++
		if best == truth {
			correct++
		}
		total++
	}

	fmt.Printf("land-use inference from service usage: %d/%d communes correct (%.1f%%)\n\n",
		correct, total, 100*float64(correct)/float64(total))
	rows := [][]string{}
	for u := 0; u < geo.NumUrbanization; u++ {
		truth := geo.Urbanization(u)
		row := []string{truth.String()}
		for v := 0; v < geo.NumUrbanization; v++ {
			row = append(row, fmt.Sprintf("%d", confusion[truth][geo.Urbanization(v)]))
		}
		rows = append(rows, row)
	}
	printTrimmed(report.Table(
		[]string{"true \\ inferred", "Urban", "Semi-Urban", "Rural", "TGV"}, rows))
	fmt.Println("Per-user volume separates urban from rural communes (Fig. 11's")
	fmt.Println("finding); the usage mix refines the boundary cases.")

	// Output:
	// land-use inference from service usage: 274/400 communes correct (68.5%)
	//
	// true \ inferred  Urban  Semi-Urban  Rural  TGV
	// ----------------------------------------------
	// Urban            2      0           4      3
	// Semi-Urban       9      7           18     6
	// Rural            19     19          216    14
	// TGV              10     5           19     49
	//
	// Per-user volume separates urban from rural communes (Fig. 11's
	// finding); the usage mix refines the boundary cases.
}

func sum(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v
	}
	return s
}

// printTrimmed prints s without trailing blanks on its lines, which an
// Output comment cannot hold.
func printTrimmed(s string) {
	for _, line := range strings.Split(s, "\n") {
		fmt.Println(strings.TrimRight(line, " "))
	}
}
