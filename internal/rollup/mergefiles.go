package rollup

import (
	"fmt"
	"io"
	"math"
	"os"
	"slices"

	"repro/internal/chaos"
	"repro/internal/services"
)

// MergeFiles merges k snapshot files into one snapshot at dst: MergeTo
// streamed through chaos.WriteAtomic, so a merge that fails part way
// leaves dst as it was. dst must not name any source.
func MergeFiles(dst string, srcs ...string) error {
	if dfi, err := os.Stat(dst); err == nil {
		for _, src := range srcs {
			if fi, err := os.Stat(src); err == nil && os.SameFile(dfi, fi) {
				return fmt.Errorf("rollup: destination %s is source %s — the merge would replace its own input", dst, src)
			}
		}
	}
	return chaos.WriteAtomic(chaos.OS, dst, func(w io.Writer) error { return MergeTo(w, srcs...) })
}

// MergeTo merges k snapshot files into one v2 snapshot written to w
// without ever holding two full partials in RAM: it streams epoch-sorted
// cell lists through the incremental codec, so live memory is bounded
// by the source headers (service tables) and indexes plus one epoch of
// cells per source — never the cell total of any file.
//
// The sources must be aligned (same step and geography, starts a
// whole number of steps apart); the output covers their union grid,
// with per-bin cells summed exactly where ranges overlap and every
// overflow epoch folded into the union's overflow. Counters and
// totals add across sources. The result is byte-identical to loading
// every source and folding them with Partial.Merge — the canonical
// encoding has exactly one byte representation per aggregate.
//
// Every source opens indexed (OpenIndexed), which gives its header and
// epoch bin list without a pass over its cells — a v1 source is
// decoded and CRC-checked once to build that index. The merge then
// re-streams each source through a sequential decoder that verifies it
// end to end, one pending epoch per source; a corrupt record surfaces
// as an error after w has taken a prefix. A source appearing twice is
// rejected as the file-level shape of the self-merge error.
func MergeTo(w io.Writer, srcs ...string) error {
	if len(srcs) == 0 {
		return fmt.Errorf("rollup: a merge needs at least one source snapshot")
	}
	if err := checkDistinctSources(srcs); err != nil {
		return err
	}
	m := &kwayMerger{srcs: make([]*mergeSource, len(srcs))}
	for i, src := range srcs {
		x, err := OpenIndexed(src)
		if err != nil {
			return err
		}
		defer x.Close()
		m.srcs[i] = &mergeSource{x: x}
	}

	// The union grid, service table, totals and counters.
	out := &Partial{Cfg: m.srcs[0].x.Header().Cfg}
	for i, ms := range m.srcs[1:] {
		u, err := out.Cfg.Union(ms.x.Header().Cfg)
		if err != nil {
			return fmt.Errorf("rollup: merging %s: %w", srcs[i+1], err)
		}
		out.Cfg = u
	}
	var names []string
	for _, ms := range m.srcs {
		names = append(names, ms.x.Header().Services...)
	}
	slices.Sort(names)
	names = slices.Compact(names)
	if len(names) >= int(services.NoID) {
		return fmt.Errorf("rollup: merged service table of %d names exceeds the %d-service ID namespace",
			len(names), int(services.NoID)-1)
	}
	out.Services = names
	idx := make(map[string]uint32, len(names))
	for i, name := range names {
		idx[name] = uint32(i)
	}
	// The output epoch sequence: the sorted union of the shifted bin
	// lists (overflow, encoded as -1, naturally sorts first).
	var outBins []int
	for _, ms := range m.srcs {
		h := ms.x.Header()
		ms.remap = make([]uint32, len(h.Services))
		for j, name := range h.Services {
			ms.remap[j] = idx[name]
		}
		ms.shift = h.Cfg.binOffset(out.Cfg)
		out.absorbSums(h)
		for _, en := range ms.x.Entries() {
			outBins = append(outBins, shiftBin(en.Bin, ms.shift))
		}
	}
	slices.Sort(outBins)
	outBins = slices.Compact(outBins)

	// The k-way merge, one epoch live per source.
	enc, err := NewEncoderV2(w, out, len(outBins))
	if err != nil {
		return err
	}
	for _, ms := range m.srcs {
		if ms.dec, err = NewDecoder(io.NewSectionReader(ms.x.f, 0, math.MaxInt64)); err != nil {
			return fmt.Errorf("%s: %w", ms.x.Path(), err)
		}
		if err := ms.advance(); err != nil {
			return err
		}
	}
	for _, bin := range outBins {
		cells, err := m.epoch(bin)
		if err != nil {
			return err
		}
		if err := enc.WriteEpoch(Epoch{Bin: bin, Cells: cells}); err != nil {
			return err
		}
	}
	// Every source must have been consumed, so its final Next verified
	// the CRC (and a v2 footer) against the stream it decoded.
	for _, ms := range m.srcs {
		if ms.has {
			return fmt.Errorf("%s: unmerged epochs left behind", ms.x.Path())
		}
	}
	return enc.Close()
}

// UpgradeFile rewrites the snapshot at src as format v2 at dst. It is a
// one-source MergeFiles: the payload encoding is canonical and the same
// in both versions, so the output's payload section is the input's
// byte for byte, and a v2 src re-indexes to an identical file.
func UpgradeFile(src, dst string) error { return MergeFiles(dst, src) }

// checkDistinctSources rejects a source named twice (or through two
// paths to one file): a source counted twice is the file-level
// self-merge double-count.
func checkDistinctSources(srcs []string) error {
	infos := make([]os.FileInfo, len(srcs))
	for i, src := range srcs {
		fi, err := os.Stat(src)
		if err != nil {
			return err
		}
		infos[i] = fi
		for j := 0; j < i; j++ {
			if os.SameFile(infos[j], fi) {
				return fmt.Errorf("rollup: source %s repeats %s — merging a snapshot with itself would double-count every cell",
					src, srcs[j])
			}
		}
	}
	return nil
}

func shiftBin(bin, shift int) int {
	if bin == OverflowBin {
		return OverflowBin
	}
	return bin + shift
}

// mergeSource is one snapshot being streamed through the merge: its
// indexed handle, a sequential decoder over it, the source's service
// remap and bin shift, and the one pending epoch (decoded into a
// buffer reused across epochs).
type mergeSource struct {
	x       *IndexedSnapshot
	dec     *Decoder
	remap   []uint32
	shift   int
	pending Epoch
	buf     []Cell
	has     bool
}

// advance decodes the next epoch, remaps its service ids into the
// union table and restores cell order (the remap may break it). The
// cell buffer is reused across epochs, so the source holds exactly
// one epoch of cells at any time.
func (ms *mergeSource) advance() error {
	ep, ok, err := ms.dec.Next(ms.buf[:0:cap(ms.buf)])
	if err != nil {
		return fmt.Errorf("%s: %w", ms.x.Path(), err)
	}
	if !ok {
		ms.has = false
		return nil
	}
	for i := range ep.Cells {
		ep.Cells[i].Svc = ms.remap[ep.Cells[i].Svc]
	}
	slices.SortFunc(ep.Cells, cellCompare)
	ep.Bin = shiftBin(ep.Bin, ms.shift)
	ms.pending, ms.buf, ms.has = ep, ep.Cells, true
	return nil
}

// kwayMerger folds the pending epochs of every source that lands on
// one output bin into a single sorted cell list, reusing two scratch
// buffers so steady-state merging allocates nothing.
type kwayMerger struct {
	srcs    []*mergeSource
	acc     []Cell
	scratch []Cell
}

// epoch merges every source epoch mapping to bin and advances those
// sources past it.
func (m *kwayMerger) epoch(bin int) ([]Cell, error) {
	m.acc = m.acc[:0]
	for _, ms := range m.srcs {
		if !ms.has || ms.pending.Bin != bin {
			continue
		}
		if len(m.acc) == 0 {
			m.acc = append(m.acc, ms.pending.Cells...)
		} else {
			m.scratch = mergeCellsInto(m.scratch[:0], m.acc, ms.pending.Cells)
			m.acc, m.scratch = m.scratch, m.acc
		}
		if err := ms.advance(); err != nil {
			return nil, err
		}
	}
	return m.acc, nil
}

// mergeCellsInto sums two sorted unique cell lists into dst (appended,
// so callers can recycle its backing array).
func mergeCellsInto(dst, a, b []Cell) []Cell {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case cellLess(a[i], b[j]):
			dst = append(dst, a[i])
			i++
		case cellLess(b[j], a[i]):
			dst = append(dst, b[j])
			j++
		default:
			c := a[i]
			c.Bytes += b[j].Bytes
			dst = append(dst, c)
			i, j = i+1, j+1
		}
	}
	dst = append(dst, a[i:]...)
	return append(dst, b[j:]...)
}
