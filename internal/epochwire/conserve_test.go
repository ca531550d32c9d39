package epochwire

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestCheckScrapeConservation table-tests the live oracle CI runs as
// `rollupctl fetch -conserve`. The first case scrapes a real
// aggregator's registry, so a rename of the gauges in metrics.go that
// the check did not follow fails here instead of turning the oracle
// into "not an aggd endpoint?".
func TestCheckScrapeConservation(t *testing.T) {
	reg := obs.NewRegistry()
	a, err := NewAggregator("127.0.0.1:0", "", AggConfig{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a.Stop)
	cfg := testConfig()
	p := dialProbe(t, a.Addr(), "north", 1, cfg)
	p.send(&Message{Type: MsgEpoch, Seq: 1, Watermark: 1, Blob: epochBlob(t, cfg, 0, "Facebook", 3, 100)})
	var live bytes.Buffer
	if err := reg.WriteJSON(&live); err != nil {
		t.Fatal(err)
	}

	const dl, ul = `"aggd_applied_cell_bytes{dir=\"dl\"}"`, `"aggd_applied_cell_bytes{dir=\"ul\"}"`
	const fdl, ful = `"aggd_fold_cell_bytes{dir=\"dl\"}"`, `"aggd_fold_cell_bytes{dir=\"ul\"}"`
	for _, tc := range []struct {
		name, scrape string
		out, err     string // "" err means conserved
	}{
		{"live-aggregator", live.String(),
			"conservation ok (dl): applied == fold == 100 cell bytes\nconservation ok (ul): applied == fold == 0 cell bytes\n", ""},
		{"conserved", `{` + dl + `:633000000,` + fdl + `:633000000,` + ul + `:41,` + ful + `:41}`,
			"conservation ok (dl): applied == fold == 633000000 cell bytes\nconservation ok (ul): applied == fold == 41 cell bytes\n", ""},
		{"violated", `{` + dl + `:100,` + fdl + `:100,` + ul + `:41,` + ful + `:40}`,
			"conservation ok (dl): applied == fold == 100 cell bytes\n",
			"conservation violated: applied 41 ul cell bytes but the fold holds 40"},
		{"nothing-aggregated-yet", `{` + dl + `:0,` + fdl + `:-1,` + ul + `:0,` + ful + `:-1}`, "", ""},
		{"fold-empty-but-bytes-applied", `{` + dl + `:7,` + fdl + `:-1,` + ul + `:0,` + ful + `:-1}`, "",
			"conservation violated: applied 7 dl cell bytes but the fold holds -1"},
		{"gauges-absent", `{"catalog_queries_total":3}`, "", "not an aggd endpoint?"},
		{"one-side-absent", `{` + dl + `:1,` + ul + `:1}`, "", "not an aggd endpoint?"},
		{"histograms-mixed-in", `{"apply_seconds":{"count":4,"sum":0.25,"buckets":[1,3]},` + dl + `:5,` + fdl + `:5,` + ul + `:0,` + ful + `:0}`,
			"conservation ok (dl): applied == fold == 5 cell bytes\nconservation ok (ul): applied == fold == 0 cell bytes\n", ""},
		{"gauge-is-an-object", `{` + dl + `:{"count":1},` + fdl + `:5,` + ul + `:0,` + ful + `:0}`, "", "not an aggd endpoint?"},
		{"undecodable", `ok 12`, "", "undecodable metrics reply"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out strings.Builder
			err := CheckScrapeConservation([]byte(tc.scrape), &out)
			if (err == nil) != (tc.err == "") || err != nil && !strings.Contains(err.Error(), tc.err) {
				t.Errorf("err = %v, want %q", err, tc.err)
			}
			if out.String() != tc.out {
				t.Errorf("reported %q, want %q", out.String(), tc.out)
			}
		})
	}
}
