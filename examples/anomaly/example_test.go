// Anomaly: use the paper's smoothed z-score detector as an operational
// tool — watch a service's national series for flash-crowd events. A
// synthetic incident (a viral event tripling Twitter traffic on a
// Wednesday night) is injected and recovered, illustrating why the
// robust running-window detector beats a fixed threshold for
// operations.
//
//	go test -v -run Example ./examples/anomaly
package anomaly

import (
	"fmt"
	"log"
	"strings"
	"time"

	"repro/internal/peaks"
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
	idx, err := ds.ServiceIndex("Twitter")
	if err != nil {
		log.Fatal(err)
	}
	s := ds.NationalSeries(services.DL, idx).Clone()

	// Inject a flash crowd: Wednesday 02:30 (an overseas event hitting
	// the overnight trough), far from every topical time, ramping to
	// 3x load over 90 minutes.
	event := timeseries.StudyStart.Add(4*24*time.Hour + 2*time.Hour + 30*time.Minute)
	start := s.IndexOf(event)
	profile := []float64{0.5, 1.2, 2.0, 1.6, 0.9, 0.4}
	for k, boost := range profile {
		if start+k < s.Len() {
			s.Values[start+k] *= 1 + boost
		}
	}

	res, err := peaks.Detect(s.Values, peaks.PaperParams())
	if err != nil {
		log.Fatal(err)
	}
	pks, err := peaks.ExtractPeaks(s.Values, res)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("smoothed z-score scan of the Twitter national series:")
	found := false
	for _, pk := range pks {
		if pk.Duration() < 2 || pk.Intensity() < 0.03 {
			continue
		}
		at := s.TimeAt(pk.MaxIdx)
		tt := peaks.AssignTopical(at)
		label := tt.String()
		if tt == peaks.NoTopicalTime {
			label = "ANOMALY (outside every topical time)"
			found = true
		}
		fmt.Printf("  %s  intensity %5.1f%%  %s\n",
			at.Format("Mon 15:04"), pk.Intensity()*100, label)
	}
	if !found {
		fmt.Println("  injected event missed!")
	}

	markers := make([]bool, s.Len())
	for _, pk := range pks {
		if pk.Duration() >= 2 && pk.Intensity() >= 0.03 {
			markers[pk.Start] = true
		}
	}
	fmt.Println()
	printTrimmed(report.LinePlot("Twitter downlink with injected flash crowd (Sat..Fri)",
		s.Values, 96, 10, markers))
	fmt.Println("Routine peaks all map onto the paper's seven topical times;")
	fmt.Println("the one that does not is the incident.")

	// Output:
	// smoothed z-score scan of the Twitter national series:
	//   Mon 08:00  intensity  28.3%  Morning commuting
	//   Mon 10:00  intensity   9.1%  Morning break
	//   Mon 13:00  intensity  41.9%  Midday
	//   Mon 18:00  intensity  20.9%  Afternoon commuting
	//   Tue 08:00  intensity  28.0%  Morning commuting
	//   Tue 10:00  intensity   9.2%  Morning break
	//   Tue 13:00  intensity  41.7%  Midday
	//   Tue 18:00  intensity  21.4%  Afternoon commuting
	//   Wed 03:00  intensity 144.3%  ANOMALY (outside every topical time)
	//   Wed 08:00  intensity   9.2%  Morning commuting
	//   Wed 10:00  intensity   9.3%  Morning break
	//   Wed 13:00  intensity  42.3%  Midday
	//   Wed 18:00  intensity  23.0%  Afternoon commuting
	//   Thu 08:00  intensity   9.5%  Morning commuting
	//   Thu 10:00  intensity   8.7%  Morning break
	//   Thu 13:00  intensity  42.9%  Midday
	//   Thu 18:00  intensity  22.1%  Afternoon commuting
	//   Fri 08:00  intensity  27.7%  Morning commuting
	//   Fri 10:00  intensity   8.9%  Morning break
	//   Fri 13:00  intensity  42.0%  Midday
	//   Fri 18:00  intensity  21.4%  Afternoon commuting
	//
	// Twitter downlink with injected flash crowd (Sat..Fri)  (min 1.37e+09, max 2.27e+10)
	//                                                                                          █
	//                                   █             █             █             █            ░
	//                                  █░█          █ ░           █ ░           ██░           █░
	//                                 █░░░         █░█░          █░ ░          █░░░         ██░░█
	//                                █░░░░ ██      ░░░░█ █       ░░ ░ ██       ░░░░ ██      ░░░░░ █
	//      ████████      ████████    ░░░░░█░░█     ░░░░░█░██     ░░█░█░░██    █░░░░█░░█     ░░░░░█░██
	//     █░░░░░░░░     █░░░░░░░░   █░░░░░░░░░█   █░░░░░░░░░█ █ █░░░░░░░░░    ░░░░░░░░░█   █░░░░░░░░░█
	//    █░░░░░░░░░█   █░░░░░░░░░█  ░░░░░░░░░░░   ░░░░░░░░░░░ ░█░░░░░░░░░░█  █░░░░░░░░░░   ░░░░░░░░░░░
	//   █░░░░░░░░░░░  █░░░░░░░░░░░ █░░░░░░░░░░░█ █░░░░░░░░░░░ ░░░░░░░░░░░░░ █░░░░░░░░░░░█ █░░░░░░░░░░░
	// ██░░░░░░░░░░░░██░░░░░░░░░░░░█░░░░░░░░░░░░░█░░░░░░░░░░░░█░░░░░░░░░░░░░█░░░░░░░░░░░░░█░░░░░░░░░░░░
	//                                | ||  |       || |  |    |  || | |        |||  |       || |  |     <- detected peaks
	//
	// Routine peaks all map onto the paper's seven topical times;
	// the one that does not is the incident.
}

// printTrimmed prints s without trailing blanks on its lines, which an
// Output comment cannot hold.
func printTrimmed(s string) {
	for _, line := range strings.Split(s, "\n") {
		fmt.Println(strings.TrimRight(line, " "))
	}
}
