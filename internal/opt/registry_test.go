package opt

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
)

// TestRegisteredNames freezes the registry listing: adding or renaming
// a backend must update this pin (and with it the wire protocol
// vocabulary, the CI solver matrix, and the docs).
func TestRegisteredNames(t *testing.T) {
	want := []string{"levelset", "multilevel", "pixel"}
	if got := Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("registered solvers = %v, want %v", got, want)
	}
}

// TestNewUnknownSolverSentinel covers a name never registered and the
// retired ADMM and curvy backends, which are unknown names like any other.
func TestNewUnknownSolverSentinel(t *testing.T) {
	for _, name := range []string{"quantum", "admm", "curvy"} {
		_, err := New(name, nil)
		if err == nil {
			t.Fatalf("New(%s) succeeded", name)
		}
		if !errors.Is(err, ErrUnknownSolver) {
			t.Fatalf("error %v does not wrap ErrUnknownSolver", err)
		}
		if !strings.Contains(err.Error(), "pixel") {
			t.Fatalf("error %v does not list registered names", err)
		}
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
// that satisfies Solver and Fingerprinter, whose fingerprint is its
// registry name, so cache keys carry solver provenance.
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
		if fp != name {
			t.Fatalf("solver %q fingerprint %q is not its registry name", name, fp)
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
