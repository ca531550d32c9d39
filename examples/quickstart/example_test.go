// Quickstart: generate a synthetic nationwide dataset, run the
// headline analyses through the backend-agnostic analysis API, and
// print the paper's three findings in under a minute.
//
//	go test -v -run Example ./examples/quickstart
package quickstart

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/peaks"
	"repro/internal/services"
	"repro/internal/synth"
)

func Example() {
	// 1. Generate the dataset (the proprietary-trace substitute). Any
	// core.Dataset backend — synthetic here, probe-measured via
	// internal/measured — flows through the identical analysis below.
	ds, err := synth.Generate(synth.SmallConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dataset: %d communes, %d subscribers, %d named services\n\n",
		len(ds.Geography().Communes), ds.Geography().TotalSubscribers(), len(ds.Services()))

	an := core.New(ds)

	// 2. Temporal heterogeneity: every service has its own peak times.
	cals, _, err := an.PeakCalendars(services.DL)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("peak calendars (X = activity peak at that topical time):")
	for _, c := range cals[:6] {
		fmt.Printf("  %-18s", c.Service)
		for tt := 0; tt < peaks.NumTopicalTimes; tt++ {
			if c.Calendar.Present[tt] {
				fmt.Print("X")
			} else {
				fmt.Print(".")
			}
		}
		fmt.Println()
	}
	fmt.Printf("  ... %d distinct patterns across %d services\n\n",
		core.DistinctCalendarCount(cals), len(cals))

	// 3. Spatial homogeneity: pairwise correlation of per-user maps.
	sc, err := an.SpatialCorrelationAnalysis(services.DL)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mean pairwise spatial r²: %.2f (paper: 0.60)\n", sc.Mean)

	// 4. Urbanization: how much vs when.
	ur, err := an.UrbanizationAnalysis(services.DL)
	if err != nil {
		log.Fatal(err)
	}
	twitter, err := ds.ServiceIndex("Twitter")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Twitter per-user volume vs urban users: semi-urban %.2f, rural %.2f, TGV %.2f\n",
		ur.Slopes[twitter][geo.SemiUrban], ur.Slopes[twitter][geo.Rural],
		ur.Slopes[twitter][geo.RuralTGV])
	fmt.Printf("Twitter temporal r² across classes: urban %.2f vs TGV %.2f\n",
		ur.TimeR2[twitter][geo.Urban], ur.TimeR2[twitter][geo.RuralTGV])

	// Output:
	// dataset: 400 communes, 4699720 subscribers, 20 named services
	//
	// peak calendars (X = activity peak at that topical time):
	//   YouTube           XX..XXX
	//   iTunes            .XX.X.X
	//   Facebook Video    XX.XXX.
	//   Instagram video   .X.XX.X
	//   Netflix           .X....X
	//   Audio             ..X.XX.
	//   ... 20 distinct patterns across 20 services
	//
	// mean pairwise spatial r²: 0.67 (paper: 0.60)
	// Twitter per-user volume vs urban users: semi-urban 1.22, rural 0.56, TGV 2.47
	// Twitter temporal r² across classes: urban 0.81 vs TGV 0.45
}
