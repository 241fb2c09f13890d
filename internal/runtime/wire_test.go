package runtime

import (
	"bytes"
	"errors"
	"io"
	"math"
	"testing"

	"spinstreams/internal/operators"
)

// wireWindow is the credit window the codec tests negotiate.
const wireWindow = 64

// wireCases are real frames: the table the round-trip test walks and the
// corpus the fuzzer starts from.
func wireCases() map[string][]operators.Tuple {
	wide := make([]float64, maxTupleFields)
	for i := range wide {
		wide[i] = float64(i) / 3
	}
	full := make([]operators.Tuple, wireWindow)
	for i := range full {
		full[i] = operators.Tuple{Key: uint64(i % 7), Seq: uint64(i + 1), Port: i % 2, Fields: wide[:2]}
	}
	return map[string][]operators.Tuple{
		"one tuple, no fields": {{Key: 3, Seq: 1}},
		"mixed widths":         {{Seq: 1, Fields: []float64{1.5}}, {Seq: 2, Fields: []float64{-2, 4, 8}}, {Seq: 3}},
		"widest tuple":         {{Key: 9, Seq: 7, Fields: wide}},
		"full window":          full,
		"extremes": {
			{Key: math.MaxUint64, Seq: math.MaxUint64, Port: math.MaxInt, Fields: []float64{math.Inf(-1), math.MaxFloat64}},
			{Port: math.MinInt, Fields: []float64{math.Copysign(0, -1), math.SmallestNonzeroFloat64, math.NaN()}},
		},
	}
}

// sameTuples compares payloads bit for bit, so NaN and -0 count.
func sameTuples(a, b []operators.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Key != b[i].Key || a[i].Seq != b[i].Seq || a[i].Port != b[i].Port || len(a[i].Fields) != len(b[i].Fields) {
			return false
		}
		for j, f := range a[i].Fields {
			if math.Float64bits(f) != math.Float64bits(b[i].Fields[j]) {
				return false
			}
		}
	}
	return true
}

func TestWireFrameRoundTrip(t *testing.T) {
	var buf []byte
	for name, ts := range wireCases() {
		var n int
		buf, n = appendFrame(buf[:0], ts)
		if n != len(ts) {
			t.Fatalf("%s: framed %d of %d tuples", name, n, len(ts))
		}
		fr := frameReader{r: bytes.NewReader(buf), window: wireWindow}
		got, err := fr.next()
		if err != nil || !sameTuples(got, ts) {
			t.Errorf("%s: decoded %d tuples (err %v), want the %d encoded", name, len(got), err, len(ts))
		}
		if _, err := fr.next(); err != io.EOF {
			t.Errorf("%s: frame left bytes behind (err %v)", name, err)
		}
		// Tuples of one frame share an arena; growing one must not reach
		// into the next.
		if len(got) > 1 && len(got[0].Fields) > 0 && len(got[1].Fields) > 0 {
			next := got[1].Fields[0]
			_ = append(got[0].Fields, -1)
			if math.Float64bits(got[1].Fields[0]) != math.Float64bits(next) {
				t.Errorf("%s: append to one tuple's Fields overwrote its neighbour", name)
			}
		}
		// Every strict prefix is a truncated frame: an error, no tuples.
		for cut := 0; cut < len(buf); cut += 1 + len(buf)/97 {
			fr := frameReader{r: bytes.NewReader(buf[:cut]), window: wireWindow}
			if got, err := fr.next(); err == nil || got != nil {
				t.Fatalf("%s: %d of %d bytes decoded to %d tuples (err %v)", name, cut, len(buf), len(got), err)
			}
		}
	}
}

func TestWireFrameStopsAtOverwideTuple(t *testing.T) {
	ts := []operators.Tuple{{Seq: 1}, {Seq: 2, Fields: make([]float64, maxTupleFields+1)}, {Seq: 3}}
	buf, n := appendFrame(nil, ts)
	if n != 1 {
		t.Fatalf("framed %d tuples, want the 1 before the over-wide one", n)
	}
	got, err := (&frameReader{r: bytes.NewReader(buf), window: wireWindow}).next()
	if err != nil || !sameTuples(got, ts[:1]) {
		t.Fatalf("decoded %v (err %v)", got, err)
	}
	if _, n := appendFrame(nil, ts[1:]); n != 0 {
		t.Fatalf("framed %d tuples starting at the over-wide one, want 0", n)
	}
}

// TestWireFrameRejectsHostileHeader feeds headers that claim more than the
// negotiated window allows and nothing behind them: the reader must refuse
// on the header alone (errBadFrame), not size a buffer from it and then
// run out of input (io.ErrUnexpectedEOF).
func TestWireFrameRejectsHostileHeader(t *testing.T) {
	for name, hdr := range map[string][2]uint32{
		"empty frame":      {0, 0},
		"tuples > window":  {wireWindow + 1, 0},
		"tuples huge":      {math.MaxUint32, 0},
		"fields > allowed": {2, 2*maxTupleFields + 1},
		"fields huge":      {wireWindow, math.MaxUint32},
	} {
		b := []byte{
			byte(hdr[0]), byte(hdr[0] >> 8), byte(hdr[0] >> 16), byte(hdr[0] >> 24),
			byte(hdr[1]), byte(hdr[1] >> 8), byte(hdr[1] >> 16), byte(hdr[1] >> 24),
		}
		fr := frameReader{r: bytes.NewReader(b), window: wireWindow}
		if got, err := fr.next(); !errors.Is(err, errBadFrame) || got != nil || fr.buf != nil {
			t.Errorf("%s: got %d tuples, err %v, %d buffer bytes; want errBadFrame before any allocation",
				name, len(got), err, cap(fr.buf))
		}
	}
}

// FuzzWireFrame corrupts real frames. Whatever the bytes, decoding must
// not panic, must yield either a whole batch or none, and a batch it does
// yield must be exactly what its bytes encode.
func FuzzWireFrame(f *testing.F) {
	for _, ts := range wireCases() {
		buf, _ := appendFrame(nil, ts)
		if len(buf) > 4<<10 {
			continue // mutating a 32 KiB seed byte by byte gets nowhere
		}
		f.Add(buf)
		f.Add(buf[:len(buf)/2])
		flipped := append([]byte(nil), buf...)
		flipped[len(flipped)/3] ^= 0x5a
		f.Add(flipped)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		r := bytes.NewReader(in)
		got, err := (&frameReader{r: r, window: wireWindow}).next()
		if err != nil {
			if got != nil {
				t.Fatalf("error %v came with %d tuples", err, len(got))
			}
			return
		}
		if len(got) == 0 || len(got) > wireWindow {
			t.Fatalf("decoded %d tuples, window %d", len(got), wireWindow)
		}
		used := in[:len(in)-r.Len()]
		if again, n := appendFrame(nil, got); n != len(got) || !bytes.Equal(again, used) {
			t.Fatalf("decoded batch re-encodes to %d bytes (%d tuples), consumed %d", len(again), n, len(used))
		}
	})
}
