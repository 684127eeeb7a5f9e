package shard

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"mgsilt/internal/device"
	"mgsilt/internal/grid"
	"mgsilt/internal/opt"
)

func randMat(rn *rand.Rand, h, w int) *grid.Mat {
	m := grid.NewMat(h, w)
	for i := range m.Data {
		m.Data[i] = rn.Float64()
	}
	return m
}

func bitsEqual(t *testing.T, a, b *grid.Mat, what string) {
	t.Helper()
	if !a.SameShape(b) {
		t.Fatalf("%s: shape %dx%d vs %dx%d", what, a.H, a.W, b.H, b.W)
	}
	for i := range a.Data {
		if math.Float64bits(a.Data[i]) != math.Float64bits(b.Data[i]) {
			t.Fatalf("%s: bit mismatch at %d: %x vs %x", what, i,
				math.Float64bits(a.Data[i]), math.Float64bits(b.Data[i]))
		}
	}
}

// fbits renders a float's header form.
func fbits(v float64) string { return string(appendFbits(nil, v)) }

func testRequest(rn *rand.Rand) *SolveRequest {
	base := randMat(rn, 8, 8)
	next := base.Clone()
	next.Set(2, 3, 0.25)
	next.Set(7, 0, -1.5)
	return &SolveRequest{
		Session: "run-1.e0_x",
		N:       64,
		Solver:  "pixel",
		Tiles: []TileWire{
			{
				Index: 0, Pixels: 64, Iters: 5, Stretch: 1, LR: 0.4, PVWeight: 0.1,
				Target: randMat(rn, 8, 8), Freeze: randMat(rn, 8, 8), Init: randMat(rn, 8, 8),
			},
			{
				Index: 3, Pixels: 16, Iters: 7, Stretch: 2, LR: 0.08,
				TargetCached: true, FreezeCached: true,
				Patch: DiffPatch(base, next),
			},
			{
				Index: 1, Pixels: 64, Iters: 1, Stretch: 1, LR: 1.25e-3,
				Target: randMat(rn, 8, 8), Init: randMat(rn, 8, 8),
			},
		},
	}
}

func TestSolveRequestRoundTrip(t *testing.T) {
	rn := rand.New(rand.NewSource(7))
	req := testRequest(rn)
	var buf bytes.Buffer
	if err := WriteSolveRequest(&buf, req); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSolveRequest(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	requestsBitEqual(t, req, got)
}

// requestsBitEqual fails unless got carries every field of want, masks,
// patch runs and float parameters bit for bit.
func requestsBitEqual(t *testing.T, want, got *SolveRequest) {
	t.Helper()
	if got.Session != want.Session || got.N != want.N || got.Solver != want.Solver {
		t.Fatalf("header mismatch: %+v", got)
	}
	if len(got.Tiles) != len(want.Tiles) {
		t.Fatalf("tile count %d != %d", len(got.Tiles), len(want.Tiles))
	}
	for i := range want.Tiles {
		a, b := &want.Tiles[i], &got.Tiles[i]
		if a.Index != b.Index || a.Pixels != b.Pixels || a.Iters != b.Iters ||
			a.Stretch != b.Stretch {
			t.Fatalf("tile %d header mismatch: %+v vs %+v", i, a, b)
		}
		if math.Float64bits(a.LR) != math.Float64bits(b.LR) ||
			math.Float64bits(a.PVWeight) != math.Float64bits(b.PVWeight) {
			t.Fatalf("tile %d param bits drifted", i)
		}
		if (a.Target == nil) != (b.Target == nil) || a.TargetCached != b.TargetCached ||
			(a.Freeze == nil) != (b.Freeze == nil) || a.FreezeCached != b.FreezeCached ||
			(a.Init == nil) != (b.Init == nil) {
			t.Fatalf("tile %d target, freeze or init mode mismatch", i)
		}
		if a.Target != nil {
			bitsEqual(t, a.Target, b.Target, "target")
		}
		if a.Freeze != nil {
			bitsEqual(t, a.Freeze, b.Freeze, "freeze")
		}
		if a.Init != nil {
			bitsEqual(t, a.Init, b.Init, "init")
		}
		if (a.Patch == nil) != (b.Patch == nil) {
			t.Fatalf("tile %d patch mode mismatch", i)
		}
		if a.Patch != nil {
			if a.Patch.H != b.Patch.H || a.Patch.W != b.Patch.W || len(a.Patch.Runs) != len(b.Patch.Runs) {
				t.Fatalf("tile %d patch shape or run count mismatch", i)
			}
			for j := range a.Patch.Runs {
				ra, rb := a.Patch.Runs[j], b.Patch.Runs[j]
				if ra.Y != rb.Y || ra.X0 != rb.X0 || len(ra.Vals) != len(rb.Vals) {
					t.Fatalf("tile %d run %d mismatch", i, j)
				}
				for k := range ra.Vals {
					if math.Float64bits(ra.Vals[k]) != math.Float64bits(rb.Vals[k]) {
						t.Fatalf("tile %d run %d val %d drifted", i, j, k)
					}
				}
			}
		}
	}
}

func TestSolveResponseRoundTrip(t *testing.T) {
	rn := rand.New(rand.NewSource(11))
	resp := &SolveResponse{
		Stats: device.Stats{
			Jobs: 3, Retries: 1,
			TotalBusy: 5 * time.Millisecond, MaxBusy: 2 * time.Millisecond,
			SimElapsed: 3 * time.Millisecond, Transfer: time.Microsecond,
		},
		Tiles: []TileResult{
			{Index: 4, Mask: randMat(rn, 16, 16)},
			{Index: 0, Mask: randMat(rn, 8, 8)},
		},
	}
	var buf bytes.Buffer
	if err := WriteSolveResponse(&buf, resp); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSolveResponse(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	responsesBitEqual(t, resp, got)
}

// responsesBitEqual fails unless got carries want's stats, tile order
// and masks bit for bit.
func responsesBitEqual(t *testing.T, want, got *SolveResponse) {
	t.Helper()
	if got.Stats != want.Stats {
		t.Fatalf("stats drifted: %+v vs %+v", got.Stats, want.Stats)
	}
	if len(got.Tiles) != len(want.Tiles) {
		t.Fatalf("tile count %d != %d", len(got.Tiles), len(want.Tiles))
	}
	for i := range want.Tiles {
		if got.Tiles[i].Index != want.Tiles[i].Index {
			t.Fatalf("tile %d index %d != %d", i, got.Tiles[i].Index, want.Tiles[i].Index)
		}
		bitsEqual(t, want.Tiles[i].Mask, got.Tiles[i].Mask, "mask")
	}
}

// The response header carries the six accounting numbers in the order
// and form earlier builds wrote them — jobs, retries, then total busy,
// max busy, makespan and transfer in nanoseconds — so coordinators and
// workers of either build read each other's stats. Quarantined devices
// stay off the wire.
func TestSolveResponseStatsLine(t *testing.T) {
	var buf bytes.Buffer
	err := WriteSolveResponse(&buf, &SolveResponse{
		Stats: device.Stats{
			Jobs: 3, Retries: 1,
			TotalBusy: 5 * time.Millisecond, MaxBusy: 2 * time.Millisecond,
			SimElapsed: 3 * time.Millisecond, Transfer: time.Microsecond,
			Quarantined: 2,
		},
		Tiles: []TileResult{{Index: 0, Mask: grid.NewMat(1, 1)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	const want = wireMagic + "\nresponse solve\nstats 3 1 5000000 2000000 3000000 1000\ntiles 1\ntile 0 1 1\n"
	if got := buf.String(); !strings.HasPrefix(got, want) {
		t.Fatalf("response header\n%q\nwant\n%q", got[:min(len(got), len(want))], want)
	}
}

// TestDiffPatchBitIdentity is the halo-exchange correctness core:
// base + DiffPatch(base, next) must reproduce next bit-for-bit,
// including the cases value equality would get wrong (signed zeros,
// NaN payloads).
func TestDiffPatchBitIdentity(t *testing.T) {
	rn := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		base := randMat(rn, 12, 9)
		next := base.Clone()
		// Mutate a random sprinkling of pixels, plus the adversarial
		// values.
		for k := 0; k < rn.Intn(20); k++ {
			next.Data[rn.Intn(len(next.Data))] = rn.NormFloat64()
		}
		base.Data[0], next.Data[0] = 0.0, math.Copysign(0, -1)
		base.Data[1], next.Data[1] = math.NaN(), 1.0
		next.Data[2] = math.NaN()

		p := DiffPatch(base, next)
		if p == nil {
			t.Fatal("patch unexpectedly nil")
		}
		got, err := p.Apply(base)
		if err != nil {
			t.Fatal(err)
		}
		bitsEqual(t, next, got, "patched")
		// And the patch must be minimal: unchanged pixels never ride.
		changed := 0
		for i := range base.Data {
			if math.Float64bits(base.Data[i]) != math.Float64bits(next.Data[i]) {
				changed++
			}
		}
		if n := p.payloadBytes() / 8; n != changed {
			t.Fatalf("patch carries %d values for %d changed pixels", n, changed)
		}
	}
}

func TestDiffPatchNilOnShapeMismatch(t *testing.T) {
	a, b := grid.NewMat(4, 4), grid.NewMat(4, 5)
	if DiffPatch(a, b) != nil || DiffPatch(nil, b) != nil {
		t.Fatal("expected nil patch")
	}
}

func TestValidSession(t *testing.T) {
	for _, ok := range []string{"a", "run-1.e0_X", strings.Repeat("x", MaxSessionID)} {
		if !ValidSession(ok) {
			t.Errorf("ValidSession(%q) = false", ok)
		}
	}
	for _, bad := range []string{"", "a b", "a\nb", "a/b", strings.Repeat("x", MaxSessionID+1), "é"} {
		if ValidSession(bad) {
			t.Errorf("ValidSession(%q) = true", bad)
		}
	}
}

// TestWireRejectsCorruption drives the decoder with a table of hostile
// inputs; each must error cleanly (no panic) and never require the
// claimed allocation.
func TestWireRejectsCorruption(t *testing.T) {
	rn := rand.New(rand.NewSource(5))
	var good bytes.Buffer
	if err := WriteSolveRequest(&good, testRequest(rn)); err != nil {
		t.Fatal(err)
	}
	g := good.String()
	params4 := "params 5 1 " + fbits(0.4) + " " + fbits(0.1)
	if !strings.Contains(g, params4+"\n") {
		t.Fatalf("request lacks %q", params4)
	}

	cases := []struct {
		name string
		data string
	}{
		{"empty", ""},
		{"bad magic", "mgsilt-shard v9\n" + g[len(wireMagic)+1:]},
		// Same fields, older numerics: v2, v3 and v4 peers must be refused.
		{"version 2", "mgsilt-shard v2\n" + g[len(wireMagic)+1:]},
		{"version 3", "mgsilt-shard v3\n" + g[len(wireMagic)+1:]},
		{"previous version", "mgsilt-shard v4\n" + g[len(wireMagic)+1:]},
		{"wrong kind", strings.Replace(g, "request solve", "response solve", 1)},
		{"bad session", strings.Replace(g, "session run-1.e0_x", "session bad session", 1)},
		{"huge n", strings.Replace(g, "n 64", "n 99999999", 1)},
		{"unknown solver", strings.Replace(g, "solver pixel", "solver quantum", 1)},
		// Retired backends are unknown names like any other.
		{"admm solver", strings.Replace(g, "solver pixel", "solver admm", 1)},
		{"curvy solver", strings.Replace(g, "solver pixel", "solver curvy", 1)},
		{"tile bomb", strings.Replace(g, "tiles 3", "tiles 1000000", 1)},
		{"zero tiles", strings.Replace(g, "tiles 3", "tiles 0", 1)},
		{"huge mask", strings.Replace(g, "target full 8 8", "target full 16000 16000", 1)},
		{"negative dims", strings.Replace(g, "target full 8 8", "target full -8 8", 1)},
		{"truncated payload", g[:len(g)-100]},
		{"trailing garbage", g + "extra"},
		{"long line", wireMagic + "\n" + strings.Repeat("a", 4096) + "\n"},
		{"run out of bounds", strings.Replace(g, "run 2 3 1", "run 2 7 5", 1)},
		{"run bomb", strings.Replace(g, "init patch 8 8 2", "init patch 8 8 9999", 1)},
		{"bad float bits", strings.Replace(g, fbits(0.4), "zz", 1)},
		// The params line carries exactly four fields; a fifth (a kernel
		// budget older builds sent) names a knob this build does not have.
		{"fifth params field", strings.Replace(g, params4, params4+" "+fbits(0.75), 1)},
		{"missing end", strings.Replace(g, "end\n", "", 1)},
		// Header lines are ASCII with at most eight fields.
		{"non-ASCII field", strings.Replace(g, "tiles 3", "tiles 3\u00e9", 1)},
		{"Unicode space", strings.Replace(g, "tiles 3", "tiles\u00a03", 1)},
		{"ninth field", strings.Replace(g, "end\n", "end 1 2 3 4 5 6 7 8\n", 1)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadSolveRequest(strings.NewReader(tc.data))
			if err == nil {
				t.Fatalf("corrupt input accepted")
			}
			if strings.HasSuffix(tc.name, " solver") && !errors.Is(err, opt.ErrUnknownSolver) {
				t.Fatalf("error %v does not wrap opt.ErrUnknownSolver", err)
			}
		})
	}

	// Response corruption.
	var goodResp bytes.Buffer
	err := WriteSolveResponse(&goodResp, &SolveResponse{
		Tiles: []TileResult{{Index: 0, Mask: randMat(rn, 4, 4)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	gr := goodResp.String()
	respCases := []struct {
		name string
		data string
	}{
		{"request kind", strings.Replace(gr, "response solve", "request solve", 1)},
		{"negative stats", strings.Replace(gr, "stats 0 0", "stats -1 0", 1)},
		{"mask bomb", strings.Replace(gr, "tile 0 4 4", "tile 0 16000 16000", 1)},
		{"truncated", gr[:len(gr)-10]},
	}
	for _, tc := range respCases {
		t.Run("resp "+tc.name, func(t *testing.T) {
			if _, err := ReadSolveResponse(strings.NewReader(tc.data)); err == nil {
				t.Fatalf("corrupt response accepted")
			}
		})
	}
}

// TestWireRejectsPatchOverArea: overlapping runs are legal, but a patch
// whose runs carry more values than its area is refused as soon as the
// excess run line arrives, so a small body cannot make the decoder
// regrow and copy its run backing once per run.
func TestWireRejectsPatchOverArea(t *testing.T) {
	rn := rand.New(rand.NewSource(5))
	req := testRequest(rn)
	row := make([]float64, 8)
	p := &Patch{H: 1, W: 8}
	for range 2 {
		p.Runs = append(p.Runs, Run{Y: 0, X0: 0, Vals: row})
	}
	req.Tiles[1].Patch = p
	var buf bytes.Buffer
	if err := WriteSolveRequest(&buf, req); err != nil {
		t.Fatal(err)
	}
	_, err := ReadSolveRequest(bytes.NewReader(buf.Bytes()))
	if err == nil || !strings.Contains(err.Error(), "exceed its area") {
		t.Fatalf("over-area patch: err = %v", err)
	}

	// Runs that overlap within the area still decode.
	p.Runs = []Run{{Y: 0, X0: 0, Vals: row[:4]}, {Y: 0, X0: 2, Vals: row[:4]}}
	buf.Reset()
	if err := WriteSolveRequest(&buf, req); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSolveRequest(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	requestsBitEqual(t, req, got)
}
