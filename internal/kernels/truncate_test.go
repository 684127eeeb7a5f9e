package kernels

import (
	"math"
	"math/rand"
	"testing"

	"mgsilt/internal/fft"
	"mgsilt/internal/grid"
)

// syntheticSet builds a set with distinct, decaying weights presented
// in shuffled order, so the energy ranking is non-trivial.
func syntheticSet(rng *rand.Rand, k int) *Set {
	s := &Set{N: 16, P: 8}
	total := 0.0
	weights := make([]float64, k)
	for i := range weights {
		weights[i] = math.Pow(0.6, float64(i))
		total += weights[i]
	}
	rng.Shuffle(k, func(a, b int) { weights[a], weights[b] = weights[b], weights[a] })
	for i := 0; i < k; i++ {
		s.Kernels = append(s.Kernels, Kernel{Freq: grid.NewCMat(16, 16), Weight: weights[i] / total})
	}
	return s
}

// TestTruncatePrefixWeights: the retained kernels are exactly the
// top-m weights in descending order with their values untouched, the
// prefix is the smallest one covering the requested energy, and
// Dropped accounts for the rest.
func TestTruncatePrefixWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	s := syntheticSet(rng, 11)
	sorted := make([]float64, len(s.Kernels))
	for i, k := range s.Kernels {
		sorted[i] = k.Weight
	}
	// Selection-sort descending for the expected ranking.
	for i := range sorted {
		for j := i + 1; j < len(sorted); j++ {
			if sorted[j] > sorted[i] {
				sorted[i], sorted[j] = sorted[j], sorted[i]
			}
		}
	}
	for _, energy := range []float64{0.1, 0.3, 0.5, 0.75, 0.9, 0.99} {
		tr := s.Truncate(energy)
		if len(tr.Kernels) == 0 || len(tr.Kernels) > len(s.Kernels) {
			t.Fatalf("energy %v: bad retained count %d", energy, len(tr.Kernels))
		}
		retained := 0.0
		for i, k := range tr.Kernels {
			if k.Weight != sorted[i] {
				t.Fatalf("energy %v: retained weight %d is %v, want ranked %v", energy, i, k.Weight, sorted[i])
			}
			retained += k.Weight
		}
		if retained+1e-9 < energy {
			t.Fatalf("energy %v: retained weight %v does not cover the target", energy, retained)
		}
		if n := len(tr.Kernels); n > 1 && retained-sorted[n-1] >= energy+1e-9 {
			t.Fatalf("energy %v: prefix of %d is not minimal", energy, n)
		}
		if math.Abs(retained+tr.Dropped-1) > 1e-12 {
			t.Fatalf("energy %v: retained %v + dropped %v does not sum to 1", energy, retained, tr.Dropped)
		}
	}
}

// TestTruncateFullIdentity: energy 1.0 (or more) must hand back the
// receiver itself — same pointer, original order, zero dropped weight.
func TestTruncateFullIdentity(t *testing.T) {
	s := MustGenerate(DefaultConfig(32))
	for _, energy := range []float64{1.0, 1.5} {
		if tr := s.Truncate(energy); tr != s {
			t.Fatalf("Truncate(%v) did not return the identical set", energy)
		}
	}
	if s.Dropped != 0 {
		t.Fatalf("full set reports dropped weight %v", s.Dropped)
	}
}

// aerialWith evaluates the SOCS sum Σ w_k·|IFFT(H_k ⊙ F(M))|² directly
// (independently of internal/litho, which has its own pipeline), and
// also returns the per-kernel peak intensity max_k max_x |A_k|².
func aerialWith(s *Set, mask *grid.Mat) (*grid.Mat, float64) {
	out := grid.NewMat(mask.H, mask.W)
	peak := 0.0
	for _, k := range s.Kernels {
		field := fft.Convolve(mask, fft.SwapQuadrants(k.Freq.Clone()))
		for i, v := range field.Data {
			a := real(v)*real(v) + imag(v)*imag(v)
			out.Data[i] += k.Weight * a
			if a > peak {
				peak = a
			}
		}
	}
	return out, peak
}

// TestTruncatedAerialErrorBound: on random masks the truncated aerial
// image sits below the full one pointwise (the dropped terms are
// non-negative) and within Dropped · max_k|A_k|² of it — the bound the
// progressive-fidelity schedule is designed around.
func TestTruncatedAerialErrorBound(t *testing.T) {
	if testing.Short() {
		t.Skip("aerial property sweep")
	}
	set := MustGenerate(DefaultConfig(32))
	rng := rand.New(rand.NewSource(10))
	for _, energy := range []float64{0.5, 0.75, 0.9} {
		tr := set.Truncate(energy)
		if tr.Dropped <= 0 {
			t.Fatalf("energy %v: expected non-trivial truncation", energy)
		}
		for trial := 0; trial < 3; trial++ {
			mask := grid.NewMat(32, 32)
			for i := range mask.Data {
				mask.Data[i] = rng.Float64()
			}
			full, peak := aerialWith(set, mask)
			trunc, _ := aerialWith(tr, mask)
			bound := tr.Dropped*peak + 1e-12
			for i := range full.Data {
				diff := full.Data[i] - trunc.Data[i]
				if diff < -1e-12 {
					t.Fatalf("energy %v: truncated image exceeds full at %d by %v", energy, i, -diff)
				}
				if diff > bound {
					t.Fatalf("energy %v: error %v exceeds dropped-weight bound %v", energy, diff, bound)
				}
			}
		}
	}
}

// TestRetainCountRounding: a uniform 12-kernel set must retain exactly
// energy·12 kernels at the schedule points even when the cumulative
// float sum rounds just below the target.
func TestRetainCountRounding(t *testing.T) {
	weights := make([]float64, 12)
	for i := range weights {
		weights[i] = 1.0 / 12
	}
	order := EnergyOrder(weights)
	for _, tc := range []struct {
		energy float64
		want   int
	}{{0.75, 9}, {0.9, 11}, {0.95, 12}, {1.0, 12}, {0, 1}, {-1, 1}} {
		if got := RetainCount(weights, order, tc.energy); got != tc.want {
			t.Fatalf("RetainCount(%v) = %d, want %d", tc.energy, got, tc.want)
		}
	}
}

// TestEnergyOrderStable: ties keep original index order, so uniform
// sets truncate to a deterministic prefix.
func TestEnergyOrderStable(t *testing.T) {
	weights := []float64{0.25, 0.25, 0.25, 0.25}
	for i, idx := range EnergyOrder(weights) {
		if idx != i {
			t.Fatalf("uniform weights reordered: %v", EnergyOrder(weights))
		}
	}
}
