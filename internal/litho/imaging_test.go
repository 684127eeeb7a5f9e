package litho

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"mgsilt/internal/fft"
	"mgsilt/internal/grid"
	"mgsilt/internal/layout"
)

// Tests of imaging on the reduced grid: a differential against the
// full-grid Hopkins loop, and the state imaging leaves behind.

// fullGridAerial is the full-grid Hopkins loop: F(mask) at full size,
// every kernel's field on the full grid through the pruned inverse, the
// intensity summed there in kernel order. It resamples its own full-size
// spectra from the simulator's folded sets.
func fullGridAerial(sim *Simulator, mask *grid.Mat, pixelStretch int, focus Focus) *grid.Mat {
	size := mask.H
	set := sim.folded[focus]
	freq := fullGrid(set, size, sim.kernelStretch(size, pixelStretch), true)
	live := unionRowSupport(freq)
	fm := fft.ForwardReal2D(grid.NewCMat(size, size), mask)
	buf := grid.NewCMat(size, size)
	intensity := grid.NewMat(size, size)
	for i, h := range freq {
		prodLive(buf, fm, h, live)
		fft.Inverse2DPruned(buf, live)
		w := set.Kernels[i].Weight
		for j, v := range buf.Data {
			re, im := real(v), imag(v)
			intensity.Data[j] += w * (re*re + im*im)
		}
	}
	return intensity
}

// TestAerialMatchesFullGrid is the differential oracle of imaging on the
// reduced grid. Against the full-grid loop, Aerial agrees to rounding on
// the clip sizes inspection images and on an Eq. 9 coarse grid, carries
// the same bits wherever a set is evaluated on the full grid (M == size:
// forced dense), and prints the same resist images of generated clips at
// both process-window corners.
func TestAerialMatchesFullGrid(t *testing.T) {
	for _, c := range []struct {
		n, size, stretch int
		dense            bool
		wantM            int
	}{
		{64, 256, 1, false, 96},
		{128, 256, 1, false, 96},
		{64, 512, 1, false, 192},
		{64, 256, 1, true, 256},
		{64, 64, 2, false, 48},
	} {
		name := fmt.Sprintf("N=%d/size=%d/stretch=%d", c.n, c.size, c.stretch)
		if c.dense {
			name += "/dense"
		}
		t.Run(name, func(t *testing.T) {
			sim := simN(t, c.n, c.dense)
			image := func(mask *grid.Mat, cond Condition) *grid.Mat {
				if c.stretch == 1 {
					return sim.Aerial(mask, cond)
				}
				return sim.AerialScaled(mask, c.stretch, cond)
			}
			mask := greyMask(rand.New(rand.NewSource(int64(c.n+c.size))), c.size)
			for _, focus := range []Focus{FocusNominal, FocusDefocus} {
				if m := sim.preparedFor(focus, c.size, sim.kernelStretch(c.size, c.stretch)).m; m != c.wantM {
					t.Fatalf("focus %d: M=%d, want %d", focus, m, c.wantM)
				}
				got, want := image(mask, Condition{focus, 1}), fullGridAerial(sim, mask, c.stretch, focus)
				if c.wantM == c.size {
					if !sameBits(got, want) {
						t.Errorf("focus %d: M == size, but Aerial differs from the full-grid loop by %g", focus, got.Clone().Sub(want).MaxAbs())
					}
					continue
				}
				if d := got.Clone().Sub(want).MaxAbs(); d > 1e-12*want.MaxAbs() {
					t.Errorf("focus %d: Aerial off by %g on max I = %g", focus, d, want.MaxAbs())
				}
			}
			for seed := int64(1); seed <= 3; seed++ {
				clip, err := layout.Generate(layout.DefaultConfig(c.size, seed))
				if err != nil {
					t.Fatal(err)
				}
				for _, cond := range []Condition{sim.Inner(), sim.Outer()} {
					got := sim.PrintResist(image(clip.Target, cond), cond.Dose)
					want := sim.PrintResist(fullGridAerial(sim, clip.Target, c.stretch, cond.Focus), cond.Dose)
					if !got.Equal(want) {
						t.Errorf("clip %d, focus %d dose %g: %g pixels print differently", seed, cond.Focus, cond.Dose, got.L2Diff(want))
					}
				}
			}
		})
	}
}

// TestImagingHoldsNoClipSizedSpectra: imaging a 512² clip at N=64 leaves
// the simulator holding each set on its reduced grid alone and without
// adjoint spectra; the first LossGrad over a tile's set builds them.
func TestImagingHoldsNoClipSizedSpectra(t *testing.T) {
	const size = 8 * testN
	sim := testSim(t)
	rng := rand.New(rand.NewSource(1))
	clip := greyMask(rng, size)
	for _, cond := range []Condition{sim.Nominal(), sim.Inner()} {
		grid.PutMat(sim.Aerial(clip, cond))
	}
	if len(sim.cache) != 2 {
		t.Fatalf("imaging two conditions prepared %d sets, want 2", len(sim.cache))
	}
	for key, r := range sim.cache {
		if r.m >= size {
			t.Errorf("%+v: M=%d, want a grid below the clip's %d", key, r.m, size)
		}
		for i, h := range r.freq {
			if h.H != r.m || h.W != r.m {
				t.Errorf("%+v: kernel %d spectrum is %dx%d on the M=%d grid", key, i, h.H, h.W, r.m)
			}
		}
		if r.adj != nil || r.adjLive != nil {
			t.Errorf("%+v: imaging built the adjoint half of the set", key)
		}
	}

	_, grad := sim.LossGrad(greyMask(rng, testN), centredSquare(testN, 24), LossOpts{Stretch: 1})
	grid.PutMat(grad)
	tile := sim.preparedFor(FocusNominal, testN, 1)
	if len(tile.adj) != len(tile.freq) || tile.adjLive == nil {
		t.Errorf("LossGrad left its set with %d adjoint spectra for %d kernels", len(tile.adj), len(tile.freq))
	}
	if r := sim.preparedFor(FocusNominal, size, size/testN); r.adj != nil {
		t.Error("a LossGrad over a tile built the clip's adjoint spectra")
	}
}

// TestPreparedSetAllocatesItsBand: preparing the defocused set — twelve
// kernels, none folded — for a 16·testN grid allocates, beyond the
// M-grid spectra it keeps, less than one size×size spectrum: each
// kernel is resampled on the window its band reaches, never on the grid.
func TestPreparedSetAllocatesItsBand(t *testing.T) {
	const size = 16 * testN
	sim := testSim(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r := sim.preparedFor(FocusDefocus, size, sim.kernelStretch(size, 1))
	runtime.ReadMemStats(&after)
	grown := after.TotalAlloc - before.TotalAlloc
	kept := uint64(len(r.freq) * r.m * r.m * 16)
	clip := uint64(size * size * 16)
	t.Logf("%d kernels on M=%d: %d B allocated, %d B of them kept; one %d² spectrum is %d B", len(r.freq), r.m, grown, kept, size, clip)
	if r.m >= size {
		t.Fatalf("M=%d, want a grid below %d", r.m, size)
	}
	if grown-kept >= clip {
		t.Errorf("preparation allocated %d B beyond the %d B it keeps, want less than one %d² spectrum (%d B)", grown-kept, kept, size, clip)
	}
}
