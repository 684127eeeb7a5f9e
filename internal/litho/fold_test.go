package litho

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"mgsilt/internal/grid"
	"mgsilt/internal/kernels"
)

// Tests of the conjugate-pair fold: which sets fold and which do not,
// and a differential against the evaluation of the sets as given.

// unfoldedSim is simN evaluating its sets as given. It must be taken
// before anything is prepared.
func unfoldedSim(t testing.TB, n int) *Simulator {
	sim := simN(t, n, false)
	sim.folded = [2]*kernels.Set{FocusNominal: sim.nominal, FocusDefocus: sim.defocus}
	return sim
}

// checkFold asserts that got is set reduced to the kernels kept (input
// indices, in order), each sharing its spectrum with the input, at twice
// the input weight unless listed in single. A nil kept means nothing
// folds and the set itself comes back.
func checkFold(t *testing.T, set, got *kernels.Set, kept, single []int) {
	t.Helper()
	if kept == nil {
		if got != set {
			t.Fatalf("%d kernels folded to %d, want the set as given", len(set.Kernels), len(got.Kernels))
		}
		return
	}
	if len(got.Kernels) != len(kept) {
		t.Fatalf("%d kernels folded to %d, want %d", len(set.Kernels), len(got.Kernels), len(kept))
	}
	for i, idx := range kept {
		in, k := set.Kernels[idx], got.Kernels[i]
		want := 2 * in.Weight
		if slices.Contains(single, idx) {
			want = in.Weight
		}
		if k.Freq != in.Freq || k.Weight != want {
			t.Errorf("kept kernel %d is not input %d at weight %v (weight %v, spectrum shared: %v)",
				i, idx, want, k.Weight, k.Freq == in.Freq)
		}
	}
	if got.N != set.N || got.P != set.P || got.Defocus != set.Defocus {
		t.Errorf("folded set header %v differs from %v", got, set)
	}
	weightSum := func(s *kernels.Set) float64 {
		sum := 0.0
		for _, k := range s.Kernels {
			sum += k.Weight
		}
		return sum
	}
	if math.Abs(weightSum(got)-weightSum(set)) > 1e-15 {
		t.Errorf("weight sum %v, was %v", weightSum(got), weightSum(set))
	}
}

func TestFoldFindsConjugatePairs(t *testing.T) {
	withConfig := func(n int, edit func(*kernels.Config)) kernels.Config {
		kc := kernels.DefaultConfig(n)
		edit(&kc)
		return kc
	}
	disk := func(kc *kernels.Config) { kc.SigmaIn = 0 }
	oddRing := func(kc *kernels.Config) { kc.PointsPerRing = 5 }
	defocused := func(kc *kernels.Config) { kc.Defocus = StandardDefocus }
	sixPairs := []int{0, 1, 2, 6, 7, 8}
	for _, c := range []struct {
		name         string
		kc           kernels.Config
		stretch      int
		kept, single []int
	}{
		{"default/N=32", kernels.DefaultConfig(32), 1, sixPairs, nil},
		{"default/N=64", kernels.DefaultConfig(64), 1, sixPairs, nil},
		{"default/N=128", kernels.DefaultConfig(128), 1, sixPairs, nil},
		{"default/N=64/stretch2", kernels.DefaultConfig(64), 2, sixPairs, nil},
		{"default/N=128/stretch2", kernels.DefaultConfig(128), 2, sixPairs, nil},
		// The axial kernel of a disk source is its own conjugate reflection
		// and has no partner.
		{"disk/N=64", withConfig(64, disk), 1, []int{0, 1, 2, 3, 7, 8, 9}, []int{0}},
		{"odd-ring/N=64", withConfig(64, oddRing), 1, nil, nil},
		{"defocus/N=64", withConfig(64, defocused), 1, nil, nil},
		{"defocus/N=128/stretch2", withConfig(128, defocused), 2, nil, nil},
	} {
		t.Run(c.name, func(t *testing.T) {
			set := kernels.MustGenerate(c.kc)
			if c.stretch > 1 {
				set = set.Resampled(c.kc.N, c.stretch)
			}
			checkFold(t, set, foldConjugatePairs(set), c.kept, c.single)
		})
	}
}

// TestFoldVerifiesEachPair: a pair that is off by one ulp of weight, or
// by 1e-6 in one spectrum entry, is evaluated as given while the other
// five still fold; a set holding a NaN has no peak to measure against and
// is evaluated as given altogether.
func TestFoldVerifiesEachPair(t *testing.T) {
	brokenPair := []int{0, 1, 2, 4, 6, 7, 8} // kernels 1 and 4 as given, five folded pairs
	for _, c := range []struct {
		name    string
		perturb func(k *kernels.Kernel)
		kept    []int
	}{
		{"weight+1ulp", func(k *kernels.Kernel) { k.Weight = math.Nextafter(k.Weight, 1) }, brokenPair},
		{"entry+1e-6", func(k *kernels.Kernel) {
			c := k.Freq.H / 2
			k.Freq.Set(c+1, c-2, k.Freq.At(c+1, c-2)+1e-6)
		}, brokenPair},
		{"entry=NaN", func(k *kernels.Kernel) { k.Freq.Set(0, 0, complex(math.NaN(), 0)) }, nil},
	} {
		t.Run(c.name, func(t *testing.T) {
			set := kernels.MustGenerate(kernels.DefaultConfig(64))
			c.perturb(&set.Kernels[4]) // the antipode of kernel 1
			checkFold(t, set, foldConjugatePairs(set), c.kept, []int{1, 4})
		})
	}
}

// TestFoldedEvaluationCounts: the simulator evaluates six nominal-focus
// kernels and all twelve defocused ones, on every prepared geometry, and
// hashes the sets it was given.
func TestFoldedEvaluationCounts(t *testing.T) {
	for _, n := range []int{64, 128} {
		sim := simN(t, n, false)
		for _, g := range []struct{ size, stretch int }{{n, 1}, {n, 2}, {2 * n, 2}} {
			if k := len(sim.preparedFor(FocusNominal, g.size, g.stretch).freq); k != 6 {
				t.Errorf("N=%d size %d stretch %d: %d nominal kernels prepared, want 6", n, g.size, g.stretch, k)
			}
			if k := len(sim.preparedFor(FocusDefocus, g.size, g.stretch).freq); k != 12 {
				t.Errorf("N=%d size %d stretch %d: %d defocus kernels prepared, want 12", n, g.size, g.stretch, k)
			}
		}
		mask, target := randomMask(n, 1), centredSquare(n, n/3)
		before := KernelsEvaluatedTotal()
		_, grad := sim.LossGrad(mask, target, LossOpts{Stretch: 1, PVWeight: 0.5})
		grid.PutMat(grad)
		if got := KernelsEvaluatedTotal() - before; got != 6+12+6 {
			t.Errorf("N=%d: LossGrad with corners evaluated %d kernels, want 24", n, got)
		}
	}
	if runtime.GOARCH != "amd64" {
		return
	}
	// The fold never moved these. They were re-recorded once, when the
	// hash lost the simulator-wide kernel budget word (always 1 before).
	for n, want := range map[int]string{
		64:  "litho:5dc564c612248016ca495dc9d0f1b4948617630131864ef15970e7ff1408d9b5",
		128: "litho:955448247a51b096f99a6543f03aa6201d246a229ed62ac57484d4c4a73aa7fa",
	} {
		if got := simN(t, n, false).Fingerprint(); got != want {
			t.Errorf("N=%d: fingerprint %s, want %s: it identifies the sets as given", n, got, want)
		}
	}
}

// TestFoldedMatchesUnfolded is the differential oracle of the fold: the
// same routine over the twelve kernels as given must agree to rounding.
func TestFoldedMatchesUnfolded(t *testing.T) {
	for _, n := range []int{64, 128} {
		fold, ref := simN(t, n, false), unfoldedSim(t, n)
		if k := len(ref.preparedFor(FocusNominal, n, 1).freq); k != 12 {
			t.Fatalf("N=%d: the reference prepared %d nominal kernels, want all 12", n, k)
		}
		rng := rand.New(rand.NewSource(int64(n)))
		mask, target := greyMask(rng, n), centredSquare(n, n/3)
		aerialClose := func(name string, got, want *grid.Mat) {
			t.Helper()
			if d := got.Clone().Sub(want).MaxAbs(); d > 1e-14*want.MaxAbs() {
				t.Errorf("N=%d %s: aerial off by %g on max %g", n, name, d, want.MaxAbs())
			}
		}
		for _, cond := range []Condition{fold.Nominal(), fold.Inner()} {
			aerialClose(fmt.Sprintf("focus %d", cond.Focus), fold.Aerial(mask, cond), ref.Aerial(mask, cond))
		}
		clip := greyMask(rng, 4*n)
		aerialClose("clip 4N", fold.Aerial(clip, fold.Nominal()), ref.Aerial(clip, ref.Nominal()))
		for _, stretch := range []int{1, 2} {
			aerialClose(fmt.Sprintf("stretch %d", stretch),
				fold.AerialScaled(mask, stretch, fold.Nominal()), ref.AerialScaled(mask, stretch, ref.Nominal()))
			for _, pv := range []float64{0, 0.5} {
				opts := LossOpts{Stretch: stretch, PVWeight: pv}
				lf, gf := fold.LossGrad(mask, target, opts)
				lr, gr := ref.LossGrad(mask, target, opts)
				lossRel := math.Abs(lf-lr) / math.Abs(lr)
				gradDiff := gf.Clone().Sub(gr).MaxAbs()
				if lossRel > 1e-13 || gradDiff > 1e-12*gr.MaxAbs() {
					t.Errorf("N=%d stretch %d pv %g: loss %v vs unfolded %v (rel %g), gradient off by %g on max |g| = %g",
						n, stretch, pv, lf, lr, lossRel, gradDiff, gr.MaxAbs())
				}
				t.Logf("N=%d stretch %d pv %g: loss rel diff %.2g, gradient max-abs diff %.2g on max |g| = %.3g",
					n, stretch, pv, lossRel, gradDiff, gr.MaxAbs())
			}
		}
	}
}
