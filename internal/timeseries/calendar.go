package timeseries

import "time"

// IsWeekend reports whether t falls on Saturday or Sunday, the split
// the paper uses for its weekend/working-day dichotomy.
func IsWeekend(t time.Time) bool {
	wd := t.Weekday()
	return wd == time.Saturday || wd == time.Sunday
}

// DayLabels returns the day-of-week labels of the series, one per day
// boundary, in order ("Sat", "Sun", ...). Used for plot annotations.
func (s *Series) DayLabels() []string {
	if s.Len() == 0 {
		return nil
	}
	perDay := int(24 * time.Hour / s.Step)
	if perDay == 0 {
		return nil
	}
	nDays := (s.Len() + perDay - 1) / perDay
	labels := make([]string, nDays)
	for d := 0; d < nDays; d++ {
		labels[d] = s.TimeAt(d * perDay).Weekday().String()[:3]
	}
	return labels
}

// WeekdayMask returns a boolean per sample: true when the sample lies
// on a working day (Mon-Fri).
func (s *Series) WeekdayMask() []bool {
	mask := make([]bool, s.Len())
	for i := range mask {
		mask[i] = !IsWeekend(s.TimeAt(i))
	}
	return mask
}

// SliceByHourOfDay returns, for each of the 24 hours, the mean of all
// samples whose local hour matches — the classic diurnal profile.
func (s *Series) SliceByHourOfDay() []float64 {
	sums := make([]float64, 24)
	counts := make([]int, 24)
	for i, v := range s.Values {
		h := s.TimeAt(i).Hour()
		sums[h] += v
		counts[h]++
	}
	for h := range sums {
		if counts[h] > 0 {
			sums[h] /= float64(counts[h])
		}
	}
	return sums
}
