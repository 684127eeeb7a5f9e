package opt

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"mgsilt/internal/grid"
	"mgsilt/internal/mrc"
)

// TestRegisteredNames freezes the registry listing: adding or renaming
// a backend must update this pin (and with it the wire protocol
// vocabulary, the CI solver matrix, and the docs).
func TestRegisteredNames(t *testing.T) {
	want := []string{"admm", "curvy", "levelset", "multilevel", "pixel"}
	if got := Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("registered solvers = %v, want %v", got, want)
	}
}

func TestNewUnknownSolverSentinel(t *testing.T) {
	_, err := New("quantum", nil)
	if err == nil {
		t.Fatal("New(quantum) succeeded")
	}
	if !errors.Is(err, ErrUnknownSolver) {
		t.Fatalf("error %v does not wrap ErrUnknownSolver", err)
	}
	if !strings.Contains(err.Error(), "pixel") {
		t.Fatalf("error %v does not list registered names", err)
	}
}

func TestKnown(t *testing.T) {
	for _, name := range Names() {
		if !Known(name) {
			t.Fatalf("Known(%q) = false for a registered name", name)
		}
	}
	for _, name := range []string{"", "quantum", "Pixel", "pixel-ilt"} {
		if Known(name) {
			t.Fatalf("Known(%q) = true", name)
		}
	}
	if !Known(DefaultSolver) {
		t.Fatalf("DefaultSolver %q is not registered", DefaultSolver)
	}
}

// TestRegisteredSolversAreCacheable pins the registry contract every
// selection layer depends on: each factory builds a distinct instance
// that satisfies Solver and Fingerprinter, with fingerprints prefixed
// by the registry name so cache keys carry solver provenance.
func TestRegisteredSolversAreCacheable(t *testing.T) {
	sim := testSim(t)
	seen := map[string]string{}
	for _, name := range Names() {
		sv, err := New(name, sim)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if sv.Name() == "" {
			t.Fatalf("solver %q has empty Name()", name)
		}
		f, ok := sv.(Fingerprinter)
		if !ok {
			t.Fatalf("solver %q does not implement Fingerprinter", name)
		}
		fp := f.Fingerprint()
		if !strings.HasPrefix(fp, name+":") {
			t.Fatalf("solver %q fingerprint %q not prefixed with its registry name", name, fp)
		}
		for other, ofp := range seen {
			if ofp == fp {
				t.Fatalf("solvers %q and %q share fingerprint %q", name, other, fp)
			}
		}
		seen[name] = fp

		again, err := New(name, sim)
		if err != nil {
			t.Fatalf("New(%q) second call: %v", name, err)
		}
		if again == sv {
			t.Fatalf("New(%q) returned a shared instance", name)
		}
	}
}

// TestRegisteredSolversReduceLoss runs every backend end-to-end on the
// shared test target: each must improve on the no-ILT baseline (the
// target used as its own mask) and return a mask shaped like the
// input.
func TestRegisteredSolversReduceLoss(t *testing.T) {
	sim := testSim(t)
	target := testTarget()
	base := resistLoss(t, sim, target, target)
	for _, name := range Names() {
		sv, err := New(name, sim)
		if err != nil {
			t.Fatal(err)
		}
		out, err := sv.Solve(target, target.Clone(), Params{Iters: 20, LR: 0.4, Stretch: 1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if out.H != target.H || out.W != target.W {
			t.Fatalf("%s: output shape %dx%d", name, out.H, out.W)
		}
		loss := resistLoss(t, sim, out.Binarize(0.5), target)
		if math.IsNaN(loss) || math.IsInf(loss, 0) {
			t.Fatalf("%s: non-finite loss", name)
		}
		if loss >= base {
			t.Fatalf("%s: binarised loss %.3f did not improve on no-ILT baseline %.3f", name, loss, base)
		}
	}
}

func TestADMMFreezeHoldsDirichletData(t *testing.T) {
	sim := testSim(t)
	target := testTarget()
	init := target.Clone().Scale(0.7)
	freeze := ringFreeze(testN)
	out, err := NewADMM(sim).Solve(target, init, Params{Iters: 6, LR: 0.4, Stretch: 1, Freeze: freeze})
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range freeze.Data {
		if f >= 0.5 && out.Data[i] != init.Data[i] {
			t.Fatalf("frozen pixel %d changed: %v -> %v", i, init.Data[i], out.Data[i])
		}
	}
}

func TestCurvyFreezeHoldsDirichletData(t *testing.T) {
	sim := testSim(t)
	target := testTarget()
	init := target.Clone().Scale(0.7)
	freeze := ringFreeze(testN)
	out, err := NewCurvy(sim).Solve(target, init, Params{Iters: 6, LR: 0.4, Stretch: 1, Freeze: freeze})
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range freeze.Data {
		if f >= 0.5 && out.Data[i] != init.Data[i] {
			t.Fatalf("frozen pixel %d changed: %v -> %v", i, init.Data[i], out.Data[i])
		}
	}
}

// TestADMMProxIsExact checks the closed-form z-update against a brute
// numeric minimisation of the proximal objective ½ρ(z−v)² + λz(1−z)
// over [0,1].
func TestADMMProxIsExact(t *testing.T) {
	rho, lam := 0.6, 0.1
	prox := func(v float64) float64 { return clamp01((rho*v - lam) / (rho - 2*lam)) }
	objective := func(z, v float64) float64 { return 0.5*rho*(z-v)*(z-v) + lam*z*(1-z) }
	for _, v := range []float64{-0.5, 0, 0.1, 0.3, 0.5, 0.7, 0.9, 1, 1.5} {
		got := prox(v)
		best, bestZ := math.Inf(1), 0.0
		for z := 0.0; z <= 1.0001; z += 1e-4 {
			if o := objective(z, v); o < best {
				best, bestZ = o, z
			}
		}
		if math.Abs(got-bestZ) > 2e-4 {
			t.Fatalf("prox(%g) = %g, numeric minimiser %g", v, got, bestZ)
		}
	}
}

// TestCurvySolveIsMRCClean is the curvy acceptance bar: an unfrozen
// whole-tile solve must deliver a mask that mrc.Check passes.
func TestCurvySolveIsMRCClean(t *testing.T) {
	sim := testSim(t)
	target := testTarget()
	sv := NewCurvy(sim)
	out, err := sv.Solve(target, target.Clone(), Params{Iters: 20, LR: 0.4, Stretch: 1})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := mrc.Check(out, sv.Rules)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("curvy mask has %d MRC violations", rep.Total())
	}
	for _, v := range out.Data {
		if v != 0 && v != 1 {
			t.Fatalf("curvy mask is not binary: %v", v)
		}
	}
}

// TestCurvyLegalizeRepairs feeds Legalize a mask with a deliberate
// sub-MinWidth whisker and a sub-MinArea speck and expects a clean
// result.
func TestCurvyLegalizeRepairs(t *testing.T) {
	sv := NewCurvy(nil)
	m := grid.NewMat(testN, testN)
	for y := 10; y < 30; y++ { // legal block
		for x := 10; x < 30; x++ {
			m.Set(y, x, 1)
		}
	}
	for x := 30; x < 50; x++ { // 1-px whisker off the block
		m.Set(20, x, 1)
	}
	m.Set(50, 50, 1) // 1-px island
	rep, err := mrc.Check(m, sv.Rules)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() {
		t.Fatal("fixture mask unexpectedly clean")
	}
	out := sv.Legalize(m)
	rep, err = mrc.Check(out, sv.Rules)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("legalized mask still has %d violations", rep.Total())
	}
	if out.At(20, 20) < 0.5 {
		t.Fatal("legalization erased the legal block")
	}
}
