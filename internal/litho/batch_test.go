package litho

import (
	"math/rand"
	"sync"
	"testing"

	"mgsilt/internal/grid"
	"mgsilt/internal/kernels"
)

// greyMask returns a random continuous mask, the shape LossGrad sees
// mid-optimisation.
func greyMask(rng *rand.Rand, n int) *grid.Mat {
	m := grid.NewMat(n, n)
	for i := range m.Data {
		m.Data[i] = rng.Float64()
	}
	return m
}

// LossGradBatch must reproduce per-pair LossGrad bit for bit — the
// contract that lets the batch scheduler and the tile cache compose
// with the determinism guarantees.
func TestLossGradBatchBitIdentical(t *testing.T) {
	sim := testSim(t)
	rng := rand.New(rand.NewSource(42))

	for _, tc := range []struct {
		name string
		opts LossOpts
	}{
		{"nominal", LossOpts{Stretch: 1}},
		{"stretch", LossOpts{Stretch: 2}},
		{"pvband", LossOpts{Stretch: 1, PVWeight: 0.4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const T = 5
			masks := make([]*grid.Mat, T)
			targets := make([]*grid.Mat, T)
			for i := range masks {
				masks[i] = greyMask(rng, testN)
				targets[i] = centredSquare(testN, 10+4*i)
			}

			wantLoss := make([]float64, T)
			wantGrad := make([]*grid.Mat, T)
			for i := range masks {
				wantLoss[i], wantGrad[i] = sim.LossGrad(masks[i], targets[i], tc.opts)
			}

			gotLoss, gotGrad := sim.LossGradBatch(masks, targets, tc.opts)
			for i := range masks {
				if gotLoss[i] != wantLoss[i] {
					t.Errorf("pair %d: loss %v != %v", i, gotLoss[i], wantLoss[i])
				}
				if !gotGrad[i].Equal(wantGrad[i]) {
					t.Errorf("pair %d: gradient differs", i)
				}
			}
		})
	}
}

// A batch of one must equal the lone call exactly, and the empty batch
// must be a no-op.
func TestLossGradBatchEdges(t *testing.T) {
	sim := testSim(t)
	rng := rand.New(rand.NewSource(7))
	mask, target := greyMask(rng, testN), centredSquare(testN, 16)
	opts := LossOpts{Stretch: 1}

	wantLoss, wantGrad := sim.LossGrad(mask, target, opts)
	gotLoss, gotGrad := sim.LossGradBatch([]*grid.Mat{mask}, []*grid.Mat{target}, opts)
	if gotLoss[0] != wantLoss || !gotGrad[0].Equal(wantGrad) {
		t.Fatalf("batch of one differs from lone LossGrad")
	}

	losses, grads := sim.LossGradBatch(nil, nil, opts)
	if len(losses) != 0 || len(grads) != 0 {
		t.Fatalf("empty batch returned %d/%d results", len(losses), len(grads))
	}
}

// Fingerprint must be stable across calls and distinguish different
// optics and resist configurations.
func TestFingerprint(t *testing.T) {
	sim := testSim(t)
	fp := sim.Fingerprint()
	if fp == "" || fp != sim.Fingerprint() {
		t.Fatalf("fingerprint not stable: %q", fp)
	}
	if testSim(t).Fingerprint() != fp {
		t.Fatalf("identical configuration produced a different fingerprint")
	}

	kc := kernels.DefaultConfig(testN)
	nom := kernels.MustGenerate(kc)
	def, err := kernels.Defocused(kc, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Threshold += 0.01
	other, err := New(nom, def, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if other.Fingerprint() == fp {
		t.Fatalf("different resist config produced the same fingerprint")
	}
}

// NewStandard must build exactly the optics assembled by hand from the
// default kernel set, its 0.8-defocus companion and the default resist.
func TestNewStandardFingerprint(t *testing.T) {
	for _, n := range []int{32, testN} {
		kc := kernels.DefaultConfig(n)
		nom, err := kernels.Generate(kc)
		if err != nil {
			t.Fatal(err)
		}
		def, err := kernels.Defocused(kc, 0.8)
		if err != nil {
			t.Fatal(err)
		}
		want, err := New(nom, def, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		got, err := NewStandard(n)
		if err != nil {
			t.Fatal(err)
		}
		if got.Fingerprint() != want.Fingerprint() {
			t.Errorf("n=%d: NewStandard fingerprint %s, hand-built %s", n, got.Fingerprint(), want.Fingerprint())
		}
	}
	if _, err := NewStandard(48); err == nil {
		t.Error("NewStandard accepted a grid size kernels.Generate rejects")
	}
}

// Standard hands every caller, from any goroutine, the one simulator it
// built for a grid size, with the standard optics, and remembers no
// failed build.
func TestStandardShared(t *testing.T) {
	const callers = 4
	sims := make([]*Simulator, callers)
	var wg sync.WaitGroup
	for i := range sims {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sim, err := Standard(32)
			if err != nil {
				t.Error(err)
			}
			sims[i] = sim
		}(i)
	}
	wg.Wait()
	want, err := NewStandard(32)
	if err != nil {
		t.Fatal(err)
	}
	for i, sim := range sims {
		if sim != sims[0] {
			t.Fatalf("caller %d got a different simulator", i)
		}
	}
	if sims[0].Fingerprint() != want.Fingerprint() {
		t.Fatal("Standard(32) is not the standard optics")
	}
	for i := 0; i < 2; i++ {
		if _, err := Standard(48); err == nil {
			t.Fatal("Standard accepted a grid size kernels.Generate rejects")
		}
	}
}
