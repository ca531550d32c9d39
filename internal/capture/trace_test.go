package capture

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"slices"
	"testing"
	"testing/iotest"
	"time"
)

// refEncode is the trace format written out by hand, independent of
// Writer: magic, then per frame a big-endian nanosecond timestamp, a
// big-endian uint32 length and the bytes.
func refEncode(frames []Frame) []byte {
	out := append([]byte(nil), traceMagic[:]...)
	for _, f := range frames {
		out = binary.BigEndian.AppendUint64(out, uint64(f.Time.UnixNano()))
		out = binary.BigEndian.AppendUint32(out, uint32(len(f.Data)))
		out = append(out, f.Data...)
	}
	return out
}

// encodeTrace writes frames through Writer and checks the bytes
// against refEncode.
func encodeTrace(t testing.TB, frames []Frame) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Copy(w, NewSliceSource(frames)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), refEncode(frames)) {
		t.Fatal("Writer output differs from the trace format")
	}
	return buf.Bytes()
}

// sizedFrames returns one frame per size, with distinct timestamps and
// a byte pattern that differs from frame to frame.
func sizedFrames(sizes ...int) []Frame {
	start := time.Date(2016, 9, 24, 0, 0, 0, 0, time.UTC)
	frames := make([]Frame, len(sizes))
	for i, n := range sizes {
		data := make([]byte, n)
		for j := range data {
			data[j] = byte(i*31 + j)
		}
		frames[i] = Frame{Time: start.Add(time.Duration(i) * time.Microsecond), Data: data}
	}
	return frames
}

// replayAll reads r to its end, copying every frame out, and returns
// the frames and the error that ended the stream (nil for io.EOF).
func replayAll(t *testing.T, r io.Reader) ([]Frame, error) {
	t.Helper()
	rd, err := NewReader(r)
	if err != nil {
		t.Fatal(err)
	}
	return Collect(rd)
}

func sameFrames(t *testing.T, got, want []Frame) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("replayed %d frames, want %d", len(got), len(want))
	}
	for i := range got {
		if !got[i].Time.Equal(want[i].Time) || !bytes.Equal(got[i].Data, want[i].Data) {
			t.Fatalf("frame %d differs (len %d, want %d)", i, len(got[i].Data), len(want[i].Data))
		}
	}
}

// TestTraceCutAtEveryOffset cuts a 3-record trace at every byte: a cut
// on a record boundary is a clean, shorter trace; any other cut is a
// truncation error that is not io.EOF and that every later call
// repeats.
func TestTraceCutAtEveryOffset(t *testing.T) {
	frames := sizedFrames(5, 0, 9)
	full := encodeTrace(t, frames)
	boundary := map[int]int{len(traceMagic): 0} // offset -> records before it
	off := len(traceMagic)
	for i, f := range frames {
		off += recordHeaderLen + len(f.Data)
		boundary[off] = i + 1
	}
	for cut := 0; cut <= len(full); cut++ {
		rd, err := NewReader(bytes.NewReader(full[:cut]))
		if cut < len(traceMagic) {
			if err == nil {
				t.Errorf("cut %d: header-less trace accepted", cut)
			}
			continue
		}
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		got, err := Collect(rd)
		if n, ok := boundary[cut]; ok {
			if err != nil {
				t.Errorf("cut %d on a record boundary: %v", cut, err)
			}
			sameFrames(t, got, frames[:n])
			if _, err := rd.Next(); !errors.Is(err, io.EOF) {
				t.Errorf("cut %d: Next after the end = %v, want io.EOF", cut, err)
			}
			continue
		}
		if err == nil || errors.Is(err, io.EOF) {
			t.Errorf("cut %d inside a record: err = %v, want a truncation error", cut, err)
			continue
		}
		sameFrames(t, got, frames[:len(got)])
		if _, err2 := rd.Next(); err2 == nil || err2.Error() != err.Error() {
			t.Errorf("cut %d: later Next = %v, want the sticky %v", cut, err2, err)
		}
	}
}

// TestTraceShortReads replays through readers that return less than
// asked, or data together with io.EOF: framing must not depend on how
// the bytes arrive.
func TestTraceShortReads(t *testing.T) {
	frames := append(testFrames(40), sizedFrames(0, 1, 13, 700, 2048)...)
	raw := encodeTrace(t, frames)
	want, err := replayAll(t, bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	sameFrames(t, want, frames)
	for name, wrap := range map[string]func(io.Reader) io.Reader{
		"OneByteReader": iotest.OneByteReader,
		"HalfReader":    iotest.HalfReader,
		"DataErrReader": iotest.DataErrReader,
	} {
		t.Run(name, func(t *testing.T) {
			got, err := replayAll(t, wrap(bytes.NewReader(raw)))
			if err != nil {
				t.Fatal(err)
			}
			sameFrames(t, got, want)
		})
	}
}

// TestTraceReadErrorSurfaces checks that a failing reader's own error
// ends the replay — after every record it completed — and sticks.
func TestTraceReadErrorSurfaces(t *testing.T) {
	// More than one block, so the timeout lands on the second read.
	frames := sizedFrames(slices.Repeat([]int{1200}, 1300)...)
	raw := encodeTrace(t, frames)
	errBoom := errors.New("boom")
	cutAt := len(raw) / 3
	for _, c := range []struct {
		name      string
		r         io.Reader
		want      error
		delivered int // bytes r returns before its error
	}{
		{"TimeoutReader", iotest.TimeoutReader(bytes.NewReader(raw)), iotest.ErrTimeout, traceBlock},
		{"ErrReader", io.MultiReader(bytes.NewReader(raw[:cutAt]), iotest.ErrReader(errBoom)), errBoom, cutAt},
	} {
		t.Run(c.name, func(t *testing.T) {
			rd, err := NewReader(c.r)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Collect(rd)
			if !errors.Is(err, c.want) {
				t.Fatalf("err = %v, want %v", err, c.want)
			}
			if n := (c.delivered - len(traceMagic)) / (recordHeaderLen + 1200); len(got) != n {
				t.Errorf("replayed %d frames before the error, want %d", len(got), n)
			}
			sameFrames(t, got, frames[:len(got)])
			if _, err := rd.Next(); !errors.Is(err, c.want) {
				t.Errorf("later Next = %v, want the sticky %v", err, c.want)
			}
		})
	}
}

// TestTraceBlockBoundaries round-trips records placed around the end
// of the first read block — a header split across it, a body split
// across it, a record ending exactly on it — and one record larger
// than the block.
func TestTraceBlockBoundaries(t *testing.T) {
	// pad returns the size of a first record that puts the second
	// record's header at stream offset traceBlock-before.
	pad := func(before int) int { return traceBlock - before - len(traceMagic) - recordHeaderLen }
	cases := map[string][]int{
		"header-straddles": {pad(5), 40, 3},
		"body-straddles":   {pad(recordHeaderLen + 3), 40, 3},
		"ends-on-block":    {pad(0), 40, 3},
		"second-block":     {pad(0), traceBlock - recordHeaderLen - 6, 40, 3},
		"3MiB-record":      {100, 3 << 20, 1500, 0, 7},
	}
	for name, sizes := range cases {
		t.Run(name, func(t *testing.T) {
			frames := sizedFrames(sizes...)
			got, err := replayAll(t, bytes.NewReader(encodeTrace(t, frames)))
			if err != nil {
				t.Fatal(err)
			}
			sameFrames(t, got, frames)
		})
	}
}

// warmTrace encodes n frames of ~1.2 KB, the size of a typical
// downlink frame of the simulated capture.
func warmTrace(t testing.TB, n int) ([]Frame, []byte) {
	frames := sizedFrames(slices.Repeat([]int{1200}, n)...)
	return frames, encodeTrace(t, frames)
}

// TestReaderNextAllocs pins replay at zero allocations per frame,
// across block refills.
func TestReaderNextAllocs(t *testing.T) {
	const runs = 2000
	_, raw := warmTrace(t, runs+2)
	rd, err := NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rd.Next(); err != nil {
		t.Fatal(err)
	}
	var nextErr error
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := rd.Next(); err != nil {
			nextErr = err
		}
	})
	if nextErr != nil {
		t.Fatal(nextErr)
	}
	if allocs != 0 {
		t.Errorf("Reader.Next allocates %.2f times per frame, want 0", allocs)
	}
}

// TestWriterWriteAllocs pins recording at zero allocations per frame,
// across block flushes.
func TestWriterWriteAllocs(t *testing.T) {
	frames, _ := warmTrace(t, 1)
	w, err := NewWriter(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var writeErr error
	allocs := testing.AllocsPerRun(2000, func() {
		if err := w.Write(frames[0]); err != nil {
			writeErr = err
		}
	})
	if writeErr != nil {
		t.Fatal(writeErr)
	}
	if allocs != 0 {
		t.Errorf("Writer.Write allocates %.2f times per frame, want 0", allocs)
	}
}

// BenchmarkTraceReplay drains a ~20 MB in-memory trace of ~1.2 KB
// frames through a fresh Reader per op.
func BenchmarkTraceReplay(b *testing.B) {
	_, raw := warmTrace(b, 16000)
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	for b.Loop() {
		rd, err := NewReader(bytes.NewReader(raw))
		if err != nil {
			b.Fatal(err)
		}
		for {
			if _, err := rd.Next(); err != nil {
				if !errors.Is(err, io.EOF) {
					b.Fatal(err)
				}
				break
			}
		}
	}
}

// FuzzTraceReader replays arbitrary bytes as a trace, then the same
// bytes with cut bytes taken off the end. The reader must never panic
// or yield a frame over maxFrameLen; the cut trace must replay a
// prefix of what the whole one replays; and a cut that does not fall
// on a record boundary of the whole replay must end in an error, never
// a clean io.EOF.
func FuzzTraceReader(f *testing.F) {
	clean := encodeTrace(f, sizedFrames(5, 0, 9, 300))
	f.Add(clean, uint16(0))
	f.Add(clean, uint16(1))                            // inside the last record's body
	f.Add(clean, uint16(312))                          // exactly the last record: a boundary
	f.Add(clean, uint16(300))                          // inside the last record's body, near its start
	f.Add(clean, uint16(len(clean)-len(traceMagic)-5)) // inside the first record header
	f.Add(clean, uint16(len(clean)-3))                 // inside the magic
	flip := append([]byte(nil), clean...)
	flip[len(traceMagic)+8] ^= 0x80 // first record declares ≥ 2 GiB
	f.Add(flip, uint16(0))
	flip = append([]byte(nil), clean...)
	flip[len(traceMagic)+recordHeaderLen+2] ^= 0x01 // a payload byte: still a valid trace
	f.Add(flip, uint16(7))
	f.Add([]byte{}, uint16(0))

	// replay reads b to its end; ok is false when the header is refused.
	replay := func(t *testing.T, b []byte) (frames []Frame, ok bool, err error) {
		rd, err := NewReader(bytes.NewReader(b))
		if err != nil {
			return nil, false, err
		}
		frames, err = Collect(rd)
		for i, fr := range frames {
			if len(fr.Data) > maxFrameLen {
				t.Fatalf("frame %d is %d bytes, over the %d limit", i, len(fr.Data), maxFrameLen)
			}
		}
		return frames, true, err
	}
	f.Fuzz(func(t *testing.T, data []byte, cut uint16) {
		whole, ok, _ := replay(t, data)
		short := data[:len(data)-int(cut)%(len(data)+1)]
		got, shortOK, err := replay(t, short)
		if shortOK != (ok && len(short) >= len(traceMagic)) {
			t.Fatalf("header of the whole trace accepted %v, of its %d-byte prefix %v (%v)", ok, len(short), shortOK, err)
		}
		if !shortOK {
			return
		}
		if len(got) > len(whole) {
			t.Fatalf("cut trace replayed %d frames, the whole one %d", len(got), len(whole))
		}
		for i := range got {
			if !got[i].Time.Equal(whole[i].Time) || !bytes.Equal(got[i].Data, whole[i].Data) {
				t.Fatalf("cut trace frame %d differs from the whole replay's", i)
			}
		}
		boundary, n := len(traceMagic), 0
		for n < len(whole) && boundary < len(short) {
			boundary += recordHeaderLen + len(whole[n].Data)
			n++
		}
		if boundary == len(short) {
			if err != nil || len(got) != n {
				t.Fatalf("cut on the boundary after %d records: %d frames, err %v", n, len(got), err)
			}
		} else if err == nil {
			t.Fatalf("cut at %d, inside a record, ended in a clean EOF after %d frames", len(short), len(got))
		}
	})
}
