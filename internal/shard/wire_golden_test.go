package shard

import (
	"bytes"
	"io"
	"math"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"mgsilt/internal/device"
	"mgsilt/internal/grid"
)

// goldenRound is the round TestWireGolden pins: full masks carrying
// signed zeros, a NaN payload, infinities and a subnormal; cached target
// and freeze references; a patch of many runs, one of no runs; and a
// response with every stats field set.
func goldenRound() (*SolveRequest, *SolveResponse) {
	rn := rand.New(rand.NewSource(51))
	hostile := func(m *grid.Mat) *grid.Mat {
		m.Data[0] = math.Copysign(0, -1)
		m.Data[1] = math.Float64frombits(0x7ff8000000000123)
		m.Data[2] = math.Inf(1)
		m.Data[len(m.Data)-1] = math.SmallestNonzeroFloat64
		return m
	}
	base := randMat(rn, 16, 16)
	next := base.Clone()
	for y := 0; y < 16; y += 2 {
		if y%4 == 0 { // single-pixel runs
			for x := y % 3; x < 16; x += 3 {
				next.Set(y, x, rn.NormFloat64())
			}
		} else { // one longer run
			for x := 4; x < 11; x++ {
				next.Set(y, x, rn.NormFloat64())
			}
		}
	}
	next.Set(15, 15, math.Copysign(0, -1))
	req := &SolveRequest{
		Session: "golden-e3",
		N:       64,
		Solver:  "pixel",
		Tiles: []TileWire{
			{
				Index: 0, Pixels: 256, Iters: 12, Stretch: 1, LR: 0.4, PVWeight: 0.1,
				Target: hostile(randMat(rn, 16, 16)), Freeze: randMat(rn, 16, 16), Init: hostile(randMat(rn, 16, 16)),
			},
			{
				Index: 5, Pixels: 256, Iters: 12, Stretch: 2, LR: 0.08,
				TargetCached: true, FreezeCached: true,
				Patch: DiffPatch(base, next),
			},
			{
				Index: 2, Pixels: 256, Iters: 3, Stretch: 1, LR: 1.25e-3, PVWeight: 2,
				Target: randMat(rn, 16, 16),
				Patch:  DiffPatch(base, base),
			},
			{
				Index: 7, Pixels: 48, Iters: 0, Stretch: 4, LR: -0.5,
				TargetCached: true,
				Init:         randMat(rn, 4, 12),
			},
		},
	}
	resp := &SolveResponse{
		Stats: device.Stats{
			Jobs: 4, Retries: 1,
			TotalBusy: 7 * time.Millisecond, MaxBusy: 3 * time.Millisecond,
			SimElapsed: 4*time.Millisecond + 17, Transfer: 250 * time.Microsecond,
		},
		Tiles: []TileResult{
			{Index: 0, Mask: hostile(randMat(rn, 16, 16))},
			{Index: 5, Mask: randMat(rn, 16, 16)},
			{Index: 2, Mask: randMat(rn, 16, 16)},
			{Index: 7, Mask: randMat(rn, 4, 12)},
		},
	}
	return req, resp
}

// TestWireGolden pins the v5 wire bytes: testdata/wire_v5.golden is a
// request followed by a response, written before the codec lost its
// per-call allocations. The encoder must reproduce it byte for byte
// and the decoder must read it back bit-equal. Rerun with -update only
// for a change meant to move the bytes, which also bumps wireMagic.
func TestWireGolden(t *testing.T) {
	req, resp := goldenRound()
	var buf bytes.Buffer
	if err := WriteSolveRequest(&buf, req); err != nil {
		t.Fatal(err)
	}
	if err := WriteSolveResponse(&buf, resp); err != nil {
		t.Fatal(err)
	}
	got := buf.Bytes()
	const golden = "testdata/wire_v5.golden"
	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		i := 0
		for i < min(len(got), len(want)) && got[i] == want[i] {
			i++
		}
		t.Fatalf("encoded round (%d bytes) differs from %s (%d bytes) from byte %d on", len(got), golden, len(want), i)
	}

	split := bytes.Index(want, []byte(wireMagic+"\nresponse solve\n"))
	if split < 0 {
		t.Fatalf("%s holds no response", golden)
	}
	gotReq, err := ReadSolveRequest(bytes.NewReader(want[:split]))
	if err != nil {
		t.Fatal(err)
	}
	requestsBitEqual(t, req, gotReq)
	gotResp, err := ReadSolveResponse(bytes.NewReader(want[split:]))
	if err != nil {
		t.Fatal(err)
	}
	responsesBitEqual(t, resp, gotResp)
}

// TestWireConcurrentRoundTrips encodes and decodes the golden round
// from several goroutines at once: the recycled buffers and readers the
// codec shares must never mix two messages.
func TestWireConcurrentRoundTrips(t *testing.T) {
	want, err := os.ReadFile("testdata/wire_v5.golden")
	if err != nil {
		t.Fatal(err)
	}
	split := bytes.Index(want, []byte(wireMagic+"\nresponse solve\n"))
	req, resp := goldenRound()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				var buf bytes.Buffer
				if err := WriteSolveRequest(&buf, req); err != nil {
					t.Error(err)
					return
				}
				if err := WriteSolveResponse(&buf, resp); err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(buf.Bytes(), want) {
					t.Error("a concurrent encode differs from the golden bytes")
					return
				}
				gotReq, err := ReadSolveRequest(bytes.NewReader(want[:split]))
				if err != nil {
					t.Error(err)
					return
				}
				gotResp, err := ReadSolveResponse(bytes.NewReader(want[split:]))
				if err != nil {
					t.Error(err)
					return
				}
				var again bytes.Buffer
				if err := WriteSolveRequest(&again, gotReq); err != nil {
					t.Error(err)
					return
				}
				if err := WriteSolveResponse(&again, gotResp); err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(again.Bytes(), want) {
					t.Error("a concurrent decode does not re-encode to the golden bytes")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// haloInit returns a copy of m whose overlap frame, w pixels wide, has
// moved: the shape of a fine-Schwarz init against its base, two runs a
// row through the interior rows.
func haloInit(m *grid.Mat, w int) *grid.Mat {
	next := m.Clone()
	for y := 0; y < m.H; y++ {
		row := next.Row(y)
		for x := range row {
			if y < w || y >= m.H-w || x < w || x >= m.W-w {
				row[x] += 0.25
			}
		}
	}
	return next
}

// servedRound is one served-sharded round of nine 64² tiles: the
// first-stage request with full targets, freeze masks and inits, the
// later-stage request of cached references and halo patches (about a
// hundred runs each), and the response.
func servedRound() (full, halo *SolveRequest, resp *SolveResponse) {
	rn := rand.New(rand.NewSource(9))
	full = &SolveRequest{Session: "run-e0", N: 64, Solver: "pixel"}
	halo = &SolveRequest{Session: "run-e0", N: 64, Solver: "pixel"}
	resp = &SolveResponse{Stats: device.Stats{Jobs: 9, TotalBusy: 9 * time.Millisecond, MaxBusy: time.Millisecond}}
	for i := 0; i < 9; i++ {
		base := randMat(rn, 64, 64)
		full.Tiles = append(full.Tiles, TileWire{
			Index: i, Pixels: 64 * 64, Iters: 12, Stretch: 1, LR: 0.4,
			Target: randMat(rn, 64, 64), Freeze: randMat(rn, 64, 64), Init: base,
		})
		halo.Tiles = append(halo.Tiles, TileWire{
			Index: i, Pixels: 64 * 64, Iters: 12, Stretch: 1, LR: 0.4,
			TargetCached: true, FreezeCached: true,
			Patch: DiffPatch(base, haloInit(base, 4)),
		})
		resp.Tiles = append(resp.Tiles, TileResult{Index: i, Mask: randMat(rn, 64, 64)})
	}
	return full, halo, resp
}

// TestSolveRequestWireAllocs gates the wire's cost. Encoding a request
// or a response allocates nothing, however many runs its patches hold;
// decoding allocates per mask and per patch, with only the run slice's
// doublings growing with the run count — nothing per run, per line or
// per chunk. The collector is off while counting, as in
// TestMatDataWireAllocs.
func TestSolveRequestWireAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC()
	full, _, resp := servedRound()
	base := full.Tiles[0].Init
	withRuns := func(n int) *SolveRequest {
		next := base.Clone()
		for k := 0; k < n; k++ { // single-pixel runs, two columns apart
			next.Data[2*k] += 1
		}
		return &SolveRequest{Session: "run-e0", N: 64, Tiles: []TileWire{{
			Index: 0, Pixels: 64 * 64, Iters: 1, Stretch: 1, LR: 0.4,
			TargetCached: true, Patch: DiffPatch(base, next),
		}}}
	}
	encodeAllocs := func(write func(io.Writer) error) float64 {
		return testing.AllocsPerRun(20, func() {
			if err := write(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
	}
	decodeAllocs := func(req *SolveRequest) float64 {
		var buf bytes.Buffer
		if err := WriteSolveRequest(&buf, req); err != nil {
			t.Fatal(err)
		}
		r := bytes.NewReader(buf.Bytes())
		return testing.AllocsPerRun(20, func() {
			r.Reset(buf.Bytes())
			if _, err := ReadSolveRequest(r); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, runs := range []int{4, 1024} {
		req := withRuns(runs)
		if n := len(req.Tiles[0].Patch.Runs); n != runs {
			t.Fatalf("patch holds %d runs, want %d", n, runs)
		}
		if a := encodeAllocs(func(w io.Writer) error { return WriteSolveRequest(w, req) }); a > 0 {
			t.Errorf("WriteSolveRequest of a %d-run patch allocates %.1f times, want 0", runs, a)
		}
	}
	if a := encodeAllocs(func(w io.Writer) error { return WriteSolveRequest(w, full) }); a > 0 {
		t.Errorf("WriteSolveRequest of nine full tiles allocates %.1f times, want 0", a)
	}
	if a := encodeAllocs(func(w io.Writer) error { return WriteSolveResponse(w, resp) }); a > 0 {
		t.Errorf("WriteSolveResponse of nine tiles allocates %.1f times, want 0", a)
	}
	few, many := decodeAllocs(withRuns(4)), decodeAllocs(withRuns(1024))
	if many > few+9 {
		t.Errorf("ReadSolveRequest allocates %.0f times for a 1024-run patch and %.0f for a 4-run one: a per-run cost", many, few)
	}
	// The request, its tile slots, session and solver names, then per
	// tile a mat and its values for each of target, freeze and init.
	if a := decodeAllocs(full); a > 4+6*9 {
		t.Errorf("ReadSolveRequest of nine full tiles allocates %.0f times, want at most %d", a, 4+6*9)
	}
}

// BenchmarkWire encodes and decodes one served-sharded round: the
// full-mask request of the first stage, the halo request of the later
// ones, and the response.
func BenchmarkWire(b *testing.B) {
	full, halo, resp := servedRound()
	for _, tc := range []struct {
		name  string
		write func(io.Writer) error
		read  func(io.Reader) error
	}{
		{"request/full", func(w io.Writer) error { return WriteSolveRequest(w, full) },
			func(r io.Reader) error { _, err := ReadSolveRequest(r); return err }},
		{"request/halo", func(w io.Writer) error { return WriteSolveRequest(w, halo) },
			func(r io.Reader) error { _, err := ReadSolveRequest(r); return err }},
		{"response", func(w io.Writer) error { return WriteSolveResponse(w, resp) },
			func(r io.Reader) error { _, err := ReadSolveResponse(r); return err }},
	} {
		var buf bytes.Buffer
		if err := tc.write(&buf); err != nil {
			b.Fatal(err)
		}
		raw := append([]byte(nil), buf.Bytes()...)
		b.Run(tc.name+"/encode", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(raw)))
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if err := tc.write(&buf); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(tc.name+"/decode", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(raw)))
			r := bytes.NewReader(raw)
			for i := 0; i < b.N; i++ {
				r.Reset(raw)
				if err := tc.read(r); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
