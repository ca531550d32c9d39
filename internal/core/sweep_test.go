package core_test

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/leakcheck"
	"repro/internal/services"
)

// sweepHash is the SHA-256 of a sweep's float bits: K and the four
// scores of every point, direction by direction.
func sweepHash(sweeps [][]core.SweepPoint) string {
	h := sha256.New()
	for _, sweep := range sweeps {
		for _, p := range sweep {
			for _, v := range []float64{float64(p.K), p.Scores.DaviesBouldin, p.Scores.DBStar, p.Scores.Dunn, p.Scores.Silhouette} {
				var b [8]byte
				binary.BigEndian.PutUint64(b[:], math.Float64bits(v))
				h.Write(b[:])
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenSweepHash was recorded from the serial, uncached sweep this
// one replaced (one kshape.Cluster + cvi.AllScores(…, SBDDist) per k,
// ascending) on the small synthetic dataset, seed 1, k = 2..19, DL then
// UL. The sweep's kernels may only be rewritten bit-exactly (DESIGN.md
// §15), so the hash never changes.
const goldenSweepHash = "3dd46360ced56c3e610d9ebce36a0d062f0a6a70593494fea9554b1a5614691e"

func TestClusterSweepBitIdenticalAtAnyConcurrency(t *testing.T) {
	a := core.New(dataset(t))
	dirs := []services.Direction{services.DL, services.UL}
	for _, workers := range []int{1, 2, 8} {
		sweeps, err := a.ClusterSweep(context.Background(), dirs, 2, 19, 1, workers)
		if err != nil {
			t.Fatal(err)
		}
		for d := range dirs {
			for i, p := range sweeps[d] {
				if p.K != 2+i {
					t.Errorf("workers %d, %s: slot %d holds k=%d", workers, dirs[d], i, p.K)
				}
			}
		}
		if got := sweepHash(sweeps); got != goldenSweepHash {
			t.Errorf("workers %d: sweep hash %s, want %s", workers, got, goldenSweepHash)
		}
	}
}

// cancelAfter cancels itself on the n-th look at Err — the sweep looks
// once per (direction, k) task, so the cancellation lands mid-sweep at
// a known task whatever the machine's speed.
type cancelAfter struct {
	context.Context
	cancel context.CancelFunc
	looks  atomic.Int64
	n      int64
}

func (c *cancelAfter) Err() error {
	if c.looks.Add(1) == c.n {
		c.cancel()
	}
	return c.Context.Err()
}

func TestClusterSweepCancelMidSweep(t *testing.T) {
	leakcheck.Check(t)
	a := core.New(dataset(t))
	dirs := []services.Direction{services.DL, services.UL}
	for _, workers := range []int{1, 3} {
		inner, cancel := context.WithCancel(context.Background())
		ctx := &cancelAfter{Context: inner, cancel: cancel, n: 4}
		sweeps, err := a.ClusterSweep(ctx, dirs, 2, 19, 1, workers)
		cancel()
		if !errors.Is(err, context.Canceled) || sweeps != nil {
			t.Errorf("workers %d: cancelled sweep returned (%v, %v), want (nil, context.Canceled)", workers, sweeps, err)
		}
		// 36 tasks, cancelled at the 4th look: each worker takes at
		// most one more look before it stops.
		if looks := ctx.looks.Load(); looks > int64(4+workers) {
			t.Errorf("workers %d: %d tasks looked at after a cancel at the 4th", workers, looks)
		}
	}
}
