package litho

import (
	"math"

	"mgsilt/internal/kernels"
)

// pairTol is the relative tolerance of the conjugate-pair test, against
// the peak magnitude of the set. The generated antipodes differ through
// the rounding of their source angles only (≤ 1.3e-14 on the default
// optics, N = 32…256); anything a caller did to a kernel on purpose is
// orders of magnitude above it.
const pairTol = 1e-9

// foldConjugatePairs returns the set the simulator evaluates in place of
// the one it was given: every pair of kernels i < j with equal weights
// and H_j(f) = conj(H_i(−f)) becomes kernel i alone with weight
// w_i + w_j.
//
// A real mask has M̂(−f) = conj(M̂(f)), so such a pair's coherent fields
// are complex conjugates, A_j = conj(A_i): |A_j|² = |A_i|², and the
// adjoint term of j is the spectrum Y(f) = conj(X(−f)) of i's, whose
// inverse has the same real part. Summing the pair is doubling one
// member's weight, in the intensity and in the gradient alike. The Abbe
// source of kernels.Generate is centro-symmetric, so with the real, even
// pupil of nominal focus every source point s pairs with its antipode −s.
// Defocus makes the pupil complex: H_{−s}(f) = H_s(−f) without the
// conjugate, and that set comes back as given — as does any set whose
// pairs are not there to be found. Nothing is assumed about where a set
// came from: a pair folds only when the test below holds entry by entry,
// and a kernel that is its own conjugate reflection (the axial point of
// a disk source) has no partner and stays single.
//
// The kept kernels share their spectra with set; the result is set
// itself when nothing folds.
func foldConjugatePairs(set *kernels.Set) *kernels.Set {
	peak := 0.0
	for _, k := range set.Kernels {
		for _, v := range k.Freq.Data {
			peak = max(peak, math.Abs(real(v)), math.Abs(imag(v)))
		}
	}
	tol := pairTol * peak
	folded := make([]bool, len(set.Kernels))
	var kept []kernels.Kernel
	for i, ki := range set.Kernels {
		if folded[i] {
			continue
		}
		for j := i + 1; j < len(set.Kernels); j++ {
			if kj := set.Kernels[j]; !folded[j] && kj.Weight == ki.Weight && conjugateReflection(ki, kj, tol) {
				folded[j] = true
				ki.Weight += kj.Weight
				break
			}
		}
		kept = append(kept, ki)
	}
	if len(kept) == len(set.Kernels) {
		return set
	}
	out := *set
	out.Kernels = kept
	return &out
}

// conjugateReflection reports whether b(f) = conj(a(−f)) within tol at
// every entry. Reversing the frequency axis maps index y to (n−y) mod n
// in centre layout as in corner layout (fft.FlipFreq): the two differ by
// a shift of n/2 (kernel grids are even), and twice that is a whole
// period.
func conjugateReflection(a, b kernels.Kernel, tol float64) bool {
	h, w := a.Freq.H, a.Freq.W
	if b.Freq.H != h || b.Freq.W != w {
		return false
	}
	for y := 0; y < h; y++ {
		ar, br := a.Freq.Row((h-y)%h), b.Freq.Row(y)
		for x, bv := range br {
			av := ar[(w-x)%w]
			// Written so that a NaN fails the test.
			if !(math.Abs(real(bv)-real(av)) <= tol && math.Abs(imag(bv)+imag(av)) <= tol) {
				return false
			}
		}
	}
	return true
}
