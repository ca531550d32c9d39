package experiments

import (
	"context"
	"fmt"
	"math"
	"strings"

	"repro/internal/core"
	"repro/internal/peaks"
	"repro/internal/report"
	"repro/internal/services"
	"repro/internal/stats"
)

// Fig2 reproduces the rank-size analysis: normalized volume vs rank in
// both directions with the Zipf fit over the top half.
func (e *Env) Fig2(ctx context.Context) (Result, error) {
	res := Result{ID: "fig2", Title: "Service ranking and Zipf fit", Metrics: map[string]float64{}}
	var b strings.Builder
	for _, dir := range []services.Direction{services.DL, services.UL} {
		r, err := e.An.ServiceRanking(dir)
		if err != nil {
			return res, err
		}
		fmt.Fprintf(&b, "%s: %d services, Zipf fit over top half: exponent %.2f (R² %.3f)\n",
			dir, len(r.Volumes), r.HeadFit.Exponent, r.HeadFit.R2)
		// Log-log decimated curve.
		rows := [][]string{}
		for _, rank := range []int{1, 2, 5, 10, 20, 50, 100, 250, 400, len(r.Volumes)} {
			if rank > len(r.Volumes) {
				continue
			}
			v := r.Normalized[rank-1]
			logv := math.Inf(-1)
			if v > 0 {
				logv = math.Log10(v)
			}
			rows = append(rows, []string{
				fmt.Sprintf("%d", rank),
				fmt.Sprintf("%.3g", v),
				fmt.Sprintf("%.2f", logv),
			})
		}
		b.WriteString(report.Table([]string{"rank", "normalized", "log10"}, rows))
		b.WriteString("\n")
		res.Metrics["zipf_exponent_"+dir.String()] = r.HeadFit.Exponent
		res.Metrics["zipf_r2_"+dir.String()] = r.HeadFit.R2
	}
	res.Text = b.String()
	return res, nil
}

// Fig3 reproduces the top-20 ranking with category tags and the
// headline category shares.
func (e *Env) Fig3(ctx context.Context) (Result, error) {
	res := Result{ID: "fig3", Title: "Top-20 services by direction", Metrics: map[string]float64{}}
	var b strings.Builder
	for _, dir := range []services.Direction{services.DL, services.UL} {
		top := e.An.Top20(dir)
		bars := make([]report.Bar, len(top))
		var total float64
		for i, r := range top {
			bars[i] = report.Bar{Label: r.Name, Value: r.Share * 100, Tag: r.Category.String()}
			total += r.Share
		}
		b.WriteString(report.BarChart(fmt.Sprintf("%s — share of total traffic (%%)", dir), bars, 40))
		b.WriteString("\n")
		res.Metrics["top20_share_"+dir.String()] = total
	}
	res.Metrics["video_share_downlink"] = e.An.CategoryShare(services.DL, services.Video)
	res.Text = b.String()
	return res, nil
}

// Fig4 renders the sample weekly series with detected peak fronts for
// the paper's four example services, plus the Facebook z-score
// illustration data.
func (e *Env) Fig4(ctx context.Context) (Result, error) {
	res := Result{ID: "fig4", Title: "Sample time series and peak detection", Metrics: map[string]float64{}}
	var b strings.Builder
	for _, name := range []string{"Facebook", "SnapChat", "Netflix", "Apple store"} {
		s, det, pks, err := e.An.DetectOn(services.DL, name)
		if err != nil {
			return res, err
		}
		markers := make([]bool, s.Len())
		count := 0
		for _, pk := range pks {
			if pk.Duration() >= 2 && pk.Intensity() >= 0.03 {
				markers[pk.Start] = true
				count++
			}
		}
		b.WriteString(report.LinePlot(name+" (downlink, Sat..Fri)", s.Values, 96, 10, markers))
		b.WriteString("\n")
		res.Metrics["peaks_"+strings.ReplaceAll(strings.ToLower(name), " ", "_")] = float64(count)
		_ = det
	}

	// Right panel of Fig. 4: the detector internals on Facebook's
	// Monday — raw signal, smoothed baseline and the ±threshold band.
	// Monday is the study week's third day; a window shorter than three
	// days shows its last full day instead, named by its own calendar.
	s, det, _, err := e.An.DetectOn(services.DL, "Facebook")
	if err != nil {
		return res, err
	}
	day := int(24 * 60 / (s.Step.Minutes()))
	lo, label := 2*day, "Monday"
	if fullDays := s.Len() / day; fullDays == 0 {
		fmt.Fprintf(&b, "detector panel skipped: the %d-bin window holds no full day\n", s.Len())
		res.Text = b.String()
		return res, nil
	} else if fullDays < 3 {
		lo = (fullDays - 1) * day
		label = s.TimeAt(lo).Weekday().String()
	}
	hi := lo + day
	p := peaks.PaperParams()
	band := make([]float64, 0, hi-lo)
	for i := lo; i < hi; i++ {
		band = append(band, det.AvgFilter[i]+p.Threshold*det.StdFilter[i])
	}
	b.WriteString(report.LinePlot("Facebook "+label+" — raw signal", s.Values[lo:hi], 96, 8, nil))
	b.WriteString(report.LinePlot("Facebook "+label+" — smoothed z-score threshold (avg + 3σ)", band, 96, 8, nil))
	sigRow := make([]float64, hi-lo)
	for i := lo; i < hi; i++ {
		if det.Signals[i] == 1 {
			sigRow[i-lo] = 1
		}
	}
	b.WriteString(report.LinePlot("Facebook "+label+" — binary peak signal", sigRow, 96, 3, nil))

	res.Text = b.String()
	return res, nil
}

// Fig5 sweeps k-Shape over k = 2 up to 19 (bounded by the catalogue
// size) in both directions and reports all four validity indices,
// checking the paper's "no winner" outcome.
func (e *Env) Fig5(ctx context.Context) (Result, error) {
	res := Result{ID: "fig5", Title: "Cluster quality indices vs k", Metrics: map[string]float64{}}
	var b strings.Builder
	kMax := min(19, len(e.DS.Services())-1)
	dirs := []services.Direction{services.DL, services.UL}
	sweeps, err := e.An.ClusterSweep(ctx, dirs, 2, kMax, e.Seed, e.workers)
	if err != nil {
		return res, err
	}
	for d, dir := range dirs {
		sweep := sweeps[d]
		rows := make([][]string, 0, len(sweep))
		for _, p := range sweep {
			rows = append(rows, []string{
				fmt.Sprintf("%d", p.K),
				fmt.Sprintf("%.3f", p.Scores.DaviesBouldin),
				fmt.Sprintf("%.3f", p.Scores.DBStar),
				fmt.Sprintf("%.3f", p.Scores.Dunn),
				fmt.Sprintf("%.3f", p.Scores.Silhouette),
			})
		}
		fmt.Fprintf(&b, "%s (DB and DB*: lower better; Dunn and Silhouette: higher better)\n", dir)
		b.WriteString(report.Table([]string{"k", "DB", "DB*", "Dunn", "Silhouette"}, rows))
		b.WriteString("\n")
		// Degradation metric: the trend of silhouette against k. The
		// paper reads Fig. 5 as "steadily decreasing clustering quality
		// as k grows" — a negative slope with no interior winner.
		ks := make([]float64, 0, len(sweep))
		sil := make([]float64, 0, len(sweep))
		for _, p := range sweep {
			if !math.IsNaN(p.Scores.Silhouette) {
				ks = append(ks, float64(p.K))
				sil = append(sil, p.Scores.Silhouette)
			}
		}
		if fit, err := stats.OLS(ks, sil); err == nil {
			res.Metrics["silhouette_slope_"+dir.String()] = fit.Slope
		}
		res.Metrics["best_silhouette_k_"+dir.String()] = float64(bestSilhouetteK(sweep))
	}
	res.Text = b.String()
	return res, nil
}

func bestSilhouetteK(sweep []core.SweepPoint) int {
	best, bestK := math.Inf(-1), 0
	for _, p := range sweep {
		if !math.IsNaN(p.Scores.Silhouette) && p.Scores.Silhouette > best {
			best, bestK = p.Scores.Silhouette, p.K
		}
	}
	return bestK
}

// Fig6 builds the peak calendar (which services peak at which topical
// times) and verifies the paper's qualitative claims.
func (e *Env) Fig6(ctx context.Context) (Result, error) {
	res := Result{ID: "fig6", Title: "Activity peak times", Metrics: map[string]float64{}}
	cals, outside, err := e.An.PeakCalendars(services.DL)
	if err != nil {
		return res, err
	}
	var b strings.Builder
	header := []string{"service"}
	for tt := 0; tt < peaks.NumTopicalTimes; tt++ {
		header = append(header, shortTopical(peaks.TopicalTime(tt)))
	}
	rows := make([][]string, 0, len(cals))
	middayCount := 0
	for _, c := range cals {
		row := []string{c.Service}
		for tt := 0; tt < peaks.NumTopicalTimes; tt++ {
			mark := "."
			if c.Calendar.Present[tt] {
				mark = "X"
			}
			row = append(row, mark)
		}
		rows = append(rows, row)
		if c.Calendar.Present[peaks.Midday] {
			middayCount++
		}
	}
	b.WriteString(report.Table(header, rows))
	fmt.Fprintf(&b, "\npeaks outside topical windows: %d\n", outside)
	res.Metrics["outside_peaks"] = float64(outside)
	res.Metrics["distinct_patterns"] = float64(core.DistinctCalendarCount(cals))
	res.Metrics["services_with_midday_peak"] = float64(middayCount)
	res.Text = b.String()
	return res, nil
}

// Fig7 reports the peak intensity (max/min within the detected peak
// interval) of every service at every topical time.
func (e *Env) Fig7(ctx context.Context) (Result, error) {
	res := Result{ID: "fig7", Title: "Peak intensities per topical time", Metrics: map[string]float64{}}
	cals, _, err := e.An.PeakCalendars(services.DL)
	if err != nil {
		return res, err
	}
	var b strings.Builder
	for tt := 0; tt < peaks.NumTopicalTimes; tt++ {
		var bars []report.Bar
		maxI := 0.0
		for _, c := range cals {
			if !c.Calendar.Present[tt] {
				continue
			}
			in := c.Calendar.Intensity[tt]
			bars = append(bars, report.Bar{Label: c.Service, Value: in * 100})
			if in > maxI {
				maxI = in
			}
		}
		if len(bars) == 0 {
			continue
		}
		b.WriteString(report.BarChart(peaks.TopicalTime(tt).String()+" — peak intensity (%)", bars, 36))
		b.WriteString("\n")
		res.Metrics["max_intensity_"+shortTopical(peaks.TopicalTime(tt))] = maxI
		res.Metrics["n_services_"+shortTopical(peaks.TopicalTime(tt))] = float64(len(bars))
	}
	res.Text = b.String()
	return res, nil
}

func shortTopical(tt peaks.TopicalTime) string {
	switch tt {
	case peaks.WeekendMidday:
		return "WE-mid"
	case peaks.WeekendEvening:
		return "WE-eve"
	case peaks.MorningCommute:
		return "commute"
	case peaks.MorningBreak:
		return "break"
	case peaks.Midday:
		return "midday"
	case peaks.AfternoonCommute:
		return "aft-comm"
	case peaks.Evening:
		return "evening"
	default:
		return "?"
	}
}
