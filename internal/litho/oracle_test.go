package litho

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"mgsilt/internal/fft"
	"mgsilt/internal/grid"
	"mgsilt/internal/kernels"
	"mgsilt/internal/parallel"
)

// Oracles for the Hopkins engine: tests that can tell "unchanged" from
// "right". The spatial-domain reference shares no code with the engine
// (no FFT, no pruning, no pooling, no reduced grid); the forced-dense
// simulator runs the same routine with the reduced grid switched off.

// simFor builds a simulator from a kernel configuration; dense forces
// its solver path onto the full grid.
func simFor(t testing.TB, kc kernels.Config, dense bool) *Simulator {
	t.Helper()
	nom, err := kernels.Generate(kc)
	if err != nil {
		t.Fatal(err)
	}
	def, err := kernels.Defocused(kc, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := New(nom, def, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sim.forceDense = dense
	checkBands(t, sim)
	return sim
}

// fullGrid returns set resampled for a size-point grid at the given
// kernel stretch as whole-grid spectra, which preparation never builds:
// each kernel's window embedded in zeros, in corner layout or in centre
// layout.
func fullGrid(set *kernels.Set, size, stretch int, corner bool) []*grid.CMat {
	shift := 0
	if corner {
		shift = size / 2
	}
	out := make([]*grid.CMat, len(set.Kernels))
	for i, k := range set.Kernels {
		win, y0, x0 := fft.ResampleCentered(k.Freq, size, stretch)
		h := grid.NewCMat(size, size)
		for y := 0; y < win.H; y++ {
			dst := h.Row((y0 + y + shift) % size)
			for x, v := range win.Row(y) {
				dst[(x0+x+shift)%size] = v
			}
		}
		out[i] = h
	}
	return out
}

// fullGridBand is B measured on whole-grid corner-layout spectra: the
// largest per-axis frequency magnitude min(k, n−k) of any non-(+0)
// entry.
func fullGridBand(ms []*grid.CMat) int {
	b := 0
	for _, m := range ms {
		for y := 0; y < m.H; y++ {
			fy := min(y, m.H-y)
			for x, v := range m.Row(y) {
				if f := max(fy, min(x, m.W-x)); f > b && !isPosZero(v) {
					b = f
				}
			}
		}
	}
	return b
}

// checkBands has every set sim prepares checked when t ends: its B and M
// must be those measured on the embedded full grid, so measuring on the
// windows loses no entry.
func checkBands(t testing.TB, sim *Simulator) {
	t.Cleanup(func() {
		sim.mu.Lock()
		defer sim.mu.Unlock()
		for key, r := range sim.cache {
			b, m := fullGridBand(fullGrid(sim.folded[key.focus], key.size, key.stretch, true)), key.size
			if !sim.forceDense {
				m = reducedSide(b, key.size)
			}
			if r.b != b || r.m != m {
				t.Errorf("%+v: prepared with B=%d M=%d, the full grid gives B=%d M=%d", key, r.b, r.m, b, m)
			}
		}
	})
}

// simN is simFor with the default optics on an n-point native grid.
func simN(t testing.TB, n int, dense bool) *Simulator {
	return simFor(t, kernels.DefaultConfig(n), dense)
}

// wideConfig is an optics whose kernel band is too wide for any reduced
// grid: no 2^k or 3·2^k above 4B is smaller than the grid, so the engine
// must stay dense.
func wideConfig(n int) kernels.Config {
	kc := kernels.DefaultConfig(n)
	kc.Cutoff = float64(n) / 5
	return kc
}

// directAerial is the brute-force Hopkins sum Σ_k w_k |h_k ⊛ M|² of a
// native-size mask: every spatial kernel h_k is the naive inverse DFT of
// its centre-layout spectrum and every field a direct circular
// convolution.
func directAerial(set *kernels.Set, mask *grid.Mat) *grid.Mat {
	n := set.N
	out := grid.NewMat(n, n)
	phase := make([]complex128, n) // e^{2πi·j/n}
	for j := range phase {
		phase[j] = cmplx.Exp(complex(0, 2*math.Pi*float64(j)/float64(n)))
	}
	for _, k := range set.Kernels {
		h := make([]complex128, n*n)
		for fy := 0; fy < n; fy++ {
			for fx := 0; fx < n; fx++ {
				c := k.Freq.Row(fy)[fx]
				if c == 0 {
					continue
				}
				// Centre layout: index n/2 is frequency 0.
				for y := 0; y < n; y++ {
					py := phase[((fy-n/2)*y%n+n)%n]
					for x := 0; x < n; x++ {
						h[y*n+x] += c * py * phase[((fx-n/2)*x%n+n)%n]
					}
				}
			}
		}
		inv := 1 / float64(n*n)
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				var a complex128
				for v := 0; v < n; v++ {
					hr := h[((y-v+n)%n)*n:]
					mr := mask.Row(v)
					for u, mv := range mr {
						if mv != 0 {
							a += hr[(x-u+n)%n] * complex(mv, 0)
						}
					}
				}
				a *= complex(inv, 0)
				out.Data[y*n+x] += k.Weight * (real(a)*real(a) + imag(a)*imag(a))
			}
		}
	}
	return out
}

// directLoss evaluates the LossGrad objective from brute-force aerial
// images.
func directLoss(sim *Simulator, mask, target *grid.Mat, pvWeight float64) float64 {
	cond := func(c Condition, set *kernels.Set) float64 {
		loss := 0.0
		for i, v := range directAerial(set, mask).Data {
			d := Sigmoid(sim.cfg.SigmoidSteep*(c.Dose*v-sim.cfg.Threshold)) - target.Data[i]
			loss += d * d
		}
		return loss
	}
	loss := cond(sim.Nominal(), sim.nominal)
	if pvWeight > 0 {
		loss += pvWeight * (cond(sim.Inner(), sim.defocus) + cond(sim.Outer(), sim.nominal))
	}
	return loss
}

// TestDirectHopkinsReference checks Aerial and LossGrad's loss against
// the spatial-domain reference: on reduced grids (the default optics:
// N=16 → M=6, N=32 → M=12, both 3·2^k) and on a wide-band set that has
// none.
func TestDirectHopkinsReference(t *testing.T) {
	for _, c := range []struct {
		name  string
		kc    kernels.Config
		wantM int
	}{
		{"N=16", kernels.DefaultConfig(16), 6},
		{"N=32", kernels.DefaultConfig(32), 12},
		{"N=32/wide", wideConfig(32), 32},
	} {
		t.Run(c.name, func(t *testing.T) {
			n := c.kc.N
			sim := simFor(t, c.kc, false)
			if m := sim.preparedFor(FocusNominal, n, 1).solver().m; m != c.wantM {
				t.Fatalf("solver grid M=%d, want %d", m, c.wantM)
			}
			mask := greyMask(rand.New(rand.NewSource(int64(n))), n)
			target := centredSquare(n, n/2)
			for _, cond := range []Condition{sim.Nominal(), sim.Inner()} {
				set := sim.nominal
				if cond.Focus == FocusDefocus {
					set = sim.defocus
				}
				want := directAerial(set, mask)
				if got := sim.Aerial(mask, cond); !got.AlmostEqual(want, 1e-12) {
					t.Errorf("focus %d: Aerial differs from the direct sum by %g", cond.Focus, got.Sub(want).MaxAbs())
				}
			}
			for _, pv := range []float64{0, 0.5} {
				want := directLoss(sim, mask, target, pv)
				got, grad := sim.LossGrad(mask, target, LossOpts{Stretch: 1, PVWeight: pv})
				grid.PutMat(grad)
				if rel := math.Abs(got-want) / want; rel > 1e-11 {
					t.Errorf("PVWeight %g: loss %v vs direct %v (rel %g)", pv, got, want, rel)
				}
			}
		})
	}
}

// TestLossGradCentralDifference checks the adjoint gradient against
// central differences of the loss over the option grid the flows use.
// Stretch 1 runs on the reduced grid N=64 → M=24, stretch 2 on M=48.
func TestLossGradCentralDifference(t *testing.T) {
	sim := testSim(t)
	for _, stretch := range []int{1, 2} {
		for _, pv := range []float64{0, 0.5} {
			opts := LossOpts{Stretch: stretch, PVWeight: pv}
			t.Run(fmt.Sprintf("stretch=%d/pv=%g", stretch, pv), func(t *testing.T) {
				checkGradient(t, sim, opts)
			})
		}
	}
}

func checkGradient(t *testing.T, sim *Simulator, opts LossOpts) {
	rng := rand.New(rand.NewSource(42))
	target := centredSquare(testN, 20)
	mask := grid.NewMat(testN, testN)
	for i := range mask.Data {
		mask.Data[i] = target.Data[i]*0.8 + 0.1 + 0.05*rng.Float64()
	}
	_, gradient := sim.LossGrad(mask, target, opts)
	const eps = 1e-5
	checks := 0
	for trial := 0; trial < 400 && checks < 10; trial++ {
		y, x := rng.Intn(testN), rng.Intn(testN)
		g := gradient.At(y, x)
		if math.Abs(g) < 1e-4 {
			continue // numerically flat pixel
		}
		orig := mask.At(y, x)
		mask.Set(y, x, orig+eps)
		lp, gp := sim.LossGrad(mask, target, opts)
		mask.Set(y, x, orig-eps)
		lm, gm := sim.LossGrad(mask, target, opts)
		mask.Set(y, x, orig)
		grid.PutMat(gp)
		grid.PutMat(gm)
		fd := (lp - lm) / (2 * eps)
		if math.Abs(fd-g) > 1e-4*(math.Abs(fd)+math.Abs(g))+1e-6 {
			t.Fatalf("gradient mismatch at %d,%d: adjoint %v vs central difference %v", y, x, g, fd)
		}
		checks++
	}
	if checks < 8 {
		t.Fatalf("only %d gradient checks ran", checks)
	}
}

// TestReducedMatchesDense is the differential oracle of the reduced-grid
// evaluation: the same routine forced onto the full grid (M == size, no
// crop, no up-sampling) must give the same loss and gradient to
// rounding — on the fine tiles and on the N=128 coarse grid at stretch 2.
func TestReducedMatchesDense(t *testing.T) {
	for _, c := range []struct{ n, stretch, wantM int }{{64, 1, 24}, {128, 1, 48}, {128, 2, 96}} {
		red, dense := simN(t, c.n, false), simN(t, c.n, true)
		if m := red.preparedFor(FocusNominal, c.n, c.stretch).solver().m; m != c.wantM {
			t.Fatalf("N=%d stretch %d: reduced grid M=%d, want %d", c.n, c.stretch, m, c.wantM)
		}
		if m := dense.preparedFor(FocusNominal, c.n, c.stretch).solver().m; m != c.n {
			t.Fatalf("N=%d stretch %d: forced-dense grid M=%d, want %d", c.n, c.stretch, m, c.n)
		}
		mask := randomMask(c.n, int64(c.n))
		target := centredSquare(c.n, c.n/3)
		opts := LossOpts{Stretch: c.stretch, PVWeight: 0.5}
		lr, gr := red.LossGrad(mask, target, opts)
		ld, gd := dense.LossGrad(mask, target, opts)
		lossRel := math.Abs(lr-ld) / math.Abs(ld)
		gradDiff := gr.Clone().Sub(gd).MaxAbs()
		if lossRel > 1e-12 || gradDiff > 1e-12*gd.MaxAbs() {
			t.Errorf("N=%d stretch %d: loss %v vs dense %v (rel %g), gradient off by %g on max |g| = %g",
				c.n, c.stretch, lr, ld, lossRel, gradDiff, gd.MaxAbs())
		}
		t.Logf("N=%d stretch %d: loss rel diff %.2g, gradient max-abs diff %.2g on max |g| = %.3g",
			c.n, c.stretch, lossRel, gradDiff, gd.MaxAbs())
	}
}

// TestReducedGridGuard: every prepared set the default optics produce
// gets the smallest alias-free grid — the smallest 2^k or 3·2^k above
// 4B, or the grid itself — for every geometry the flows prepare, and a
// band too wide for a smaller grid degrades to the dense evaluation.
func TestReducedGridGuard(t *testing.T) {
	check := func(t *testing.T, sim *Simulator, size, stretch int) *reduced {
		t.Helper()
		ks := sim.kernelStretch(size, stretch)
		var r *reduced
		for _, focus := range []Focus{FocusNominal, FocusDefocus} {
			// B of the full-size resampled spectra, which the simulator
			// never builds.
			b := fullGridBand(fullGrid(sim.folded[focus], size, ks, true))
			r = sim.preparedFor(focus, size, ks).solver()
			switch {
			case r.m > size || !fftSide(r.m):
				t.Fatalf("size %d stretch %d: M=%d is not 2^k or 3·2^k within the grid", size, stretch, r.m)
			case r.m < size && r.m <= 4*b:
				t.Fatalf("size %d stretch %d: M=%d aliases a band of ±%d", size, stretch, r.m, b)
			}
			for c := 4*b + 1; c < r.m; c++ {
				if fftSide(c) {
					t.Fatalf("size %d stretch %d: M=%d is not the smallest grid above 4B=%d: %d is", size, stretch, r.m, 4*b, c)
				}
			}
		}
		return r
	}
	for _, n := range []int{32, 64, 128} {
		sim := simN(t, n, false)
		// Fine tiles, Eq. 9 coarse grids, the multi-level solver's
		// sub-native grid, and Eq. 3 multi-tile layouts.
		if r := check(t, sim, n, 1); r.m != 3*n/8 {
			t.Errorf("N=%d fine tile: M=%d, want %d", n, r.m, 3*n/8)
		}
		if r := check(t, sim, n, 2); r.m != 3*n/4 {
			t.Errorf("N=%d coarse grid at stretch 2: M=%d, want %d", n, r.m, 3*n/4)
		}
		if r := check(t, sim, n, 4); r.m != n {
			t.Errorf("N=%d coarse grid at stretch 4: M=%d, want the grid itself", n, r.m)
		}
		check(t, sim, n/2, 2)
		check(t, sim, 2*n, 1)
	}
	if r := check(t, simFor(t, wideConfig(32), false), 32, 1); r.m != 32 {
		t.Errorf("wide-band set: M=%d, want the dense grid 32", r.m)
	}
}

// fftSide reports whether n is a transform length of package fft: 2^k or
// 3·2^k.
func fftSide(n int) bool {
	return fft.IsPow2(n) || (n%3 == 0 && fft.IsPow2(n/3))
}

// TestReducedParallelAndBatchEquivalence extends the serial ≡ parallel
// and batch ≡ lone contracts to reduced grids large enough to fan out:
// a 4N layout (N=64: 256² on M=96, 6 fields above the crossover) and a
// three-tile batch of them.
func TestReducedParallelAndBatchEquivalence(t *testing.T) {
	const size = 4 * testN
	rng := rand.New(rand.NewSource(5))
	masks := make([]*grid.Mat, 3)
	targets := make([]*grid.Mat, 3)
	for i := range masks {
		masks[i] = greyMask(rng, size)
		targets[i] = centredSquare(size, 48+16*i)
	}
	opts := LossOpts{Stretch: 1, PVWeight: 0.5}

	sim := testSim(t)
	r := sim.preparedFor(FocusNominal, size, size/testN).solver()
	if r.m >= size || len(r.freq)*r.m*r.m < 2*parallel.Grain {
		t.Fatalf("M=%d with %d kernels does not exercise the reduced fan-out", r.m, len(r.freq))
	}
	wantLoss := make([]float64, len(masks))
	wantGrad := make([]*grid.Mat, len(masks))
	atWorkers(1, func() {
		for i := range masks {
			wantLoss[i], wantGrad[i] = sim.LossGrad(masks[i], targets[i], opts)
		}
	})
	for _, w := range []int{2, 3, 0} {
		atWorkers(w, func() {
			loss, grad := sim.LossGrad(masks[0], targets[0], opts)
			if loss != wantLoss[0] || !grad.Equal(wantGrad[0]) {
				t.Fatalf("workers=%d: reduced LossGrad not bit-identical to serial", w)
			}
			losses, grads := sim.LossGradBatch(masks, targets, opts)
			for i := range masks {
				if losses[i] != wantLoss[i] || !grads[i].Equal(wantGrad[i]) {
					t.Fatalf("workers=%d: batched pair %d not bit-identical to lone serial LossGrad", w, i)
				}
			}
		})
	}
}
