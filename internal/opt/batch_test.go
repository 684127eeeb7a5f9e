package opt

import (
	"context"
	"math/rand"
	"testing"

	"mgsilt/internal/grid"
)

// batchTargets builds T distinct tile targets around the shared test
// pattern so batched tiles genuinely differ.
func batchTargets(T int) ([]*grid.Mat, []*grid.Mat) {
	rng := rand.New(rand.NewSource(21))
	targets := make([]*grid.Mat, T)
	inits := make([]*grid.Mat, T)
	for i := range targets {
		tgt := testTarget()
		// Perturb each tile: drop a random block so the solves diverge.
		y, x := 4+rng.Intn(40), 4+rng.Intn(40)
		for dy := 0; dy < 8; dy++ {
			for dx := 0; dx < 8; dx++ {
				tgt.Set(y+dy, x+dx, 0)
			}
		}
		targets[i] = tgt
		inits[i] = tgt.Clone()
	}
	return targets, inits
}

// SolveBatch must reproduce per-tile Solve bit for bit, including
// freeze masks — the contract the batch scheduler and the tile cache
// both lean on.
func TestPixelSolveBatchBitIdentical(t *testing.T) {
	sim := testSim(t)
	s := NewPixel(sim)

	base := Params{Iters: 6, LR: 1.2, Stretch: 1}
	freeze := grid.NewMat(testN, testN)
	for y := 0; y < testN; y++ {
		for x := 0; x < 8; x++ {
			freeze.Set(y, x, 1)
		}
	}

	for _, tc := range []struct {
		name   string
		mutate func(*Params, int)
	}{
		{"plain", func(p *Params, i int) {}},
		{"adam-pv", func(p *Params, i int) { p.PVWeight = 0.3 }},
		{"freeze", func(p *Params, i int) {
			if i%2 == 0 {
				p.Freeze = freeze
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const T = 3
			targets, inits := batchTargets(T)
			ps := make([]Params, T)
			for i := range ps {
				ps[i] = base
				tc.mutate(&ps[i], i)
			}

			want := make([]*grid.Mat, T)
			for i := range want {
				m, err := s.Solve(targets[i], inits[i], ps[i])
				if err != nil {
					t.Fatalf("Solve %d: %v", i, err)
				}
				want[i] = m
			}

			outs, errs := s.SolveBatch(targets, inits, ps)
			for i := range outs {
				if errs[i] != nil {
					t.Fatalf("SolveBatch tile %d: %v", i, errs[i])
				}
				if !outs[i].Equal(want[i]) {
					t.Errorf("tile %d: batched solve differs from lone solve", i)
				}
			}
		})
	}
}

// Heterogeneous lockstep parameters cannot share a batch and must be
// rejected for every tile, not silently solved wrong.
func TestPixelSolveBatchLockstepRejected(t *testing.T) {
	s := NewPixel(testSim(t))
	targets, inits := batchTargets(2)
	ps := []Params{
		{Iters: 4, LR: 1, Stretch: 1},
		{Iters: 5, LR: 1, Stretch: 1},
	}
	outs, errs := s.SolveBatch(targets, inits, ps)
	for i := range errs {
		if errs[i] == nil || outs[i] != nil {
			t.Fatalf("tile %d: heterogeneous batch not rejected (err=%v)", i, errs[i])
		}
	}
}

// A tile whose context is cancelled drops out of the batch without
// disturbing its peers: the survivors stay bit-identical to lone
// solves.
func TestPixelSolveBatchPerTileCancel(t *testing.T) {
	s := NewPixel(testSim(t))
	const T = 3
	targets, inits := batchTargets(T)

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	ps := make([]Params, T)
	for i := range ps {
		ps[i] = Params{Iters: 5, LR: 1.2, Stretch: 1}
	}
	ps[1].Ctx = cancelled

	outs, errs := s.SolveBatch(targets, inits, ps)
	if errs[1] == nil || outs[1] != nil {
		t.Fatalf("cancelled tile returned %v, want context error", errs[1])
	}
	for _, i := range []int{0, 2} {
		if errs[i] != nil {
			t.Fatalf("surviving tile %d failed: %v", i, errs[i])
		}
		want, err := s.Solve(targets[i], inits[i], ps[i])
		if err != nil {
			t.Fatal(err)
		}
		if !outs[i].Equal(want) {
			t.Errorf("surviving tile %d differs from lone solve", i)
		}
	}
}

// Per-tile input validation failures must fail only that tile.
func TestPixelSolveBatchPerTileValidation(t *testing.T) {
	s := NewPixel(testSim(t))
	targets, inits := batchTargets(2)
	ps := []Params{
		{Iters: 3, LR: 1, Stretch: 1},
		// Freeze mask of the wrong shape: invalid for this tile only.
		{Iters: 3, LR: 1, Stretch: 1, Freeze: grid.NewMat(testN/2, testN/2)},
	}
	outs, errs := s.SolveBatch(targets, inits, ps)
	if errs[0] != nil || outs[0] == nil {
		t.Fatalf("valid tile failed: %v", errs[0])
	}
	if errs[1] == nil {
		t.Fatalf("invalid tile did not fail")
	}
}

// Solver fingerprints are stable and distinct per solver.
func TestSolverFingerprints(t *testing.T) {
	sim := testSim(t)
	fp := NewPixel(sim).Fingerprint()
	if fp == "" || fp != NewPixel(sim).Fingerprint() {
		t.Fatalf("pixel fingerprint not stable")
	}
	ls := NewLevelSet(sim)
	ml := NewMultiLevel(sim)
	fps := map[string]bool{fp: true, ls.Fingerprint(): true, ml.Fingerprint(): true}
	if len(fps) != 3 {
		t.Fatalf("solver fingerprints collide: %v", fps)
	}
}
