package pipeline

import (
	"bytes"
	"io"
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"mgsilt/internal/grid"
)

func rampMat(h, w int) *grid.Mat {
	m := grid.NewMat(h, w)
	for i := range m.Data {
		m.Data[i] = float64(i)*0.37 - 11
	}
	m.Data[0] = math.Copysign(0, -1)
	m.Data[len(m.Data)-1] = math.Float64frombits(0x7ff8000000000123)
	return m
}

// The payload is H·W little-endian float64 bits, row-major, whatever
// the chunking; ReadMatData gives every bit back, and ReadFloats
// appends many short reads into one slice.
func TestMatDataRoundTrip(t *testing.T) {
	for _, side := range []int{1, 63, 64, 65, 130} {
		m := rampMat(side, side+1)
		var buf bytes.Buffer
		if err := WriteMatData(&buf, m); err != nil {
			t.Fatal(err)
		}
		raw := buf.Bytes()
		if len(raw) != 8*len(m.Data) {
			t.Fatalf("%dx%d: %d payload bytes, want %d", m.H, m.W, len(raw), 8*len(m.Data))
		}
		for i, v := range m.Data {
			var u uint64
			for k := 7; k >= 0; k-- {
				u = u<<8 | uint64(raw[8*i+k])
			}
			if u != math.Float64bits(v) {
				t.Fatalf("%dx%d: value %d encodes as %x, want %x", m.H, m.W, i, u, math.Float64bits(v))
			}
		}
		got, err := ReadMatData(bytes.NewReader(raw), m.H, m.W)
		if err != nil {
			t.Fatal(err)
		}
		for i := range m.Data {
			if math.Float64bits(got.Data[i]) != math.Float64bits(m.Data[i]) {
				t.Fatalf("%dx%d: value %d decoded as %x", m.H, m.W, i, math.Float64bits(got.Data[i]))
			}
		}
		if cap(got.Data) != len(m.Data) {
			t.Errorf("%dx%d: decoded capacity %d, want %d", m.H, m.W, cap(got.Data), len(m.Data))
		}

		var vals []float64
		r := bytes.NewReader(raw)
		for off := 0; off < len(m.Data); off += 7 {
			n := min(7, len(m.Data)-off)
			if vals, err = ReadFloats(r, vals, n, len(m.Data)); err != nil {
				t.Fatal(err)
			}
		}
		for i := range m.Data {
			if math.Float64bits(vals[i]) != math.Float64bits(m.Data[i]) {
				t.Fatalf("%dx%d: appended value %d decoded as %x", m.H, m.W, i, math.Float64bits(vals[i]))
			}
		}
	}
}

// A short stream fails, and the destination grows only with the values
// that arrived: a claim of 16 384² values over 100 bytes reserves one
// first chunk.
func TestReadFloatsBoundsGrowth(t *testing.T) {
	raw := make([]byte, 100)
	if _, err := ReadMatData(bytes.NewReader(raw), 1<<14, 1<<14); err == nil {
		t.Fatal("short payload accepted")
	}
	raw = AppendFloats(nil, make([]float64, 5000))
	got, err := ReadFloats(bytes.NewReader(raw), nil, 5000, 1<<28)
	if err != nil {
		t.Fatal(err)
	}
	if cap(got) > 2*payloadChunk {
		t.Errorf("5000 values grew the destination to %d", cap(got))
	}
}

// TestMatDataWireAllocs gates the codec's cost: encoding allocates
// nothing, and decoding allocates the result (mat and values, the
// values growing by doubling past the first 4 096) and nothing per
// chunk. The collector is off while counting, after one collection, as
// in the litho gates: a cycle among the counted runs would empty the
// scratch pool.
func TestMatDataWireAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC()
	for _, tc := range []struct {
		side      int
		maxDecode float64
	}{{64, 2}, {128, 4}} {
		m := rampMat(tc.side, tc.side)
		if allocs := testing.AllocsPerRun(20, func() {
			if err := WriteMatData(io.Discard, m); err != nil {
				t.Fatal(err)
			}
		}); allocs > 0 {
			t.Errorf("%d²: WriteMatData allocates %.1f times per call, want 0", tc.side, allocs)
		}
		var buf bytes.Buffer
		if err := WriteMatData(&buf, m); err != nil {
			t.Fatal(err)
		}
		r := bytes.NewReader(buf.Bytes())
		if allocs := testing.AllocsPerRun(20, func() {
			r.Reset(buf.Bytes())
			if _, err := ReadMatData(r, tc.side, tc.side); err != nil {
				t.Fatal(err)
			}
		}); allocs > tc.maxDecode {
			t.Errorf("%d²: ReadMatData allocates %.1f times per call, want at most %.0f", tc.side, allocs, tc.maxDecode)
		}
	}
}
