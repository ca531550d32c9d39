// Package timeseries defines the regularly sampled time series type
// shared by the whole analysis pipeline, along with the normalization,
// resampling and weekly-calendar operations the paper's methodology
// relies on.
//
// All series in this reproduction cover exactly one week (the paper's
// measurement window, starting Saturday 2016-09-24) at a fixed
// resolution, but the type itself is generic over start time, step and
// length.
package timeseries

import (
	"fmt"
	"math"
	"time"
)

// Week is the length of the paper's measurement window.
const Week = 7 * 24 * time.Hour

// DefaultStep is the default sampling resolution: 15 minutes gives 672
// samples per week, fine enough that the smoothed z-score lag of two
// hours spans eight samples.
const DefaultStep = 15 * time.Minute

// StudyStart is the first instant of the paper's measurement week
// (Saturday, September 24, 2016, local midnight). Figures 4 and 6 label
// days starting from Saturday.
var StudyStart = time.Date(2016, time.September, 24, 0, 0, 0, 0, time.UTC)

// Series is a regularly sampled time series.
type Series struct {
	Start  time.Time
	Step   time.Duration
	Values []float64
}

// New allocates a zeroed series of n samples.
func New(start time.Time, step time.Duration, n int) *Series {
	if step <= 0 {
		panic(fmt.Sprintf("timeseries: non-positive step %v", step))
	}
	if n < 0 {
		panic(fmt.Sprintf("timeseries: negative length %d", n))
	}
	return &Series{Start: start, Step: step, Values: make([]float64, n)}
}

// NewWeek allocates a zeroed one-week series at the given step,
// starting at StudyStart.
func NewWeek(step time.Duration) *Series {
	n := int(Week / step)
	return New(StudyStart, step, n)
}

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.Values) }

// TimeAt returns the timestamp of sample i.
func (s *Series) TimeAt(i int) time.Time {
	return s.Start.Add(time.Duration(i) * s.Step)
}

// IndexOf returns the sample index containing the instant t, or -1 if
// t falls outside the series.
func (s *Series) IndexOf(t time.Time) int {
	if t.Before(s.Start) {
		return -1
	}
	i := int(t.Sub(s.Start) / s.Step)
	if i >= s.Len() {
		return -1
	}
	return i
}

// Clone returns a deep copy of s.
func (s *Series) Clone() *Series {
	out := New(s.Start, s.Step, s.Len())
	copy(out.Values, s.Values)
	return out
}

// Add accumulates other into s element-wise. The two series must be
// aligned (same start, step and length).
func (s *Series) Add(other *Series) error {
	if err := s.checkAligned(other); err != nil {
		return err
	}
	for i, v := range other.Values {
		s.Values[i] += v
	}
	return nil
}

// Scale multiplies every sample by f in place and returns s.
func (s *Series) Scale(f float64) *Series {
	for i := range s.Values {
		s.Values[i] *= f
	}
	return s
}

// Total returns the sum of all samples.
func (s *Series) Total() float64 {
	var t float64
	for _, v := range s.Values {
		t += v
	}
	return t
}

// Mean returns the average sample value (0 for an empty series).
func (s *Series) Mean() float64 {
	if s.Len() == 0 {
		return 0
	}
	return s.Total() / float64(s.Len())
}

// Max returns the maximum sample and its index; (-Inf, -1) for empty.
func (s *Series) Max() (float64, int) {
	best, idx := math.Inf(-1), -1
	for i, v := range s.Values {
		if v > best {
			best, idx = v, i
		}
	}
	return best, idx
}

// Min returns the minimum sample and its index; (+Inf, -1) for empty.
func (s *Series) Min() (float64, int) {
	best, idx := math.Inf(1), -1
	for i, v := range s.Values {
		if v < best {
			best, idx = v, i
		}
	}
	return best, idx
}

func (s *Series) checkAligned(other *Series) error {
	if s.Len() != other.Len() || s.Step != other.Step || !s.Start.Equal(other.Start) {
		return fmt.Errorf("timeseries: misaligned series (%v/%v/%d vs %v/%v/%d)",
			s.Start, s.Step, s.Len(), other.Start, other.Step, other.Len())
	}
	return nil
}

// ZNormalize returns a new value slice with zero mean and unit
// (population) standard deviation, the canonical preprocessing for
// shape-based clustering. A constant series normalizes to all zeros.
func ZNormalize(values []float64) []float64 {
	out := make([]float64, len(values))
	if len(values) == 0 {
		return out
	}
	var mean float64
	for _, v := range values {
		mean += v
	}
	mean /= float64(len(values))
	var variance float64
	for _, v := range values {
		d := v - mean
		variance += d * d
	}
	variance /= float64(len(values))
	std := math.Sqrt(variance)
	if std == 0 {
		return out
	}
	for i, v := range values {
		out[i] = (v - mean) / std
	}
	return out
}

// Resample aggregates the series to a coarser step, summing all fine
// samples that fall into each coarse bin. newStep must be a positive
// multiple of the current step.
func (s *Series) Resample(newStep time.Duration) (*Series, error) {
	if newStep <= 0 || newStep%s.Step != 0 {
		return nil, fmt.Errorf("timeseries: cannot resample step %v to %v", s.Step, newStep)
	}
	factor := int(newStep / s.Step)
	n := (s.Len() + factor - 1) / factor
	out := New(s.Start, newStep, n)
	for i, v := range s.Values {
		out.Values[i/factor] += v
	}
	return out, nil
}
