package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// naiveDFT is the O(n²) textbook reference: X[k] = Σ_j x[j]·e^(∓2πi·jk/n).
// Every fast kernel in this package — fused radix-4 stages, the odd
// radix-2 tail, the packed real-input path — must agree with it to
// floating-point roundoff.
func naiveDFT(x []complex128, inverse bool) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	sign := -2 * math.Pi
	if inverse {
		sign = 2 * math.Pi
	}
	for k := 0; k < n; k++ {
		var sum complex128
		for j := 0; j < n; j++ {
			ang := sign * float64(j) * float64(k) / float64(n)
			sum += x[j] * cmplx.Exp(complex(0, ang))
		}
		if inverse {
			sum /= complex(float64(n), 0)
		}
		out[k] = sum
	}
	return out
}

// relError returns max_k |got[k]-want[k]| / max_k |want[k]|.
func relError(got, want []complex128) float64 {
	var maxDiff, maxMag float64
	for k := range want {
		if d := cmplx.Abs(got[k] - want[k]); d > maxDiff {
			maxDiff = d
		}
		if m := cmplx.Abs(want[k]); m > maxMag {
			maxMag = m
		}
	}
	if maxMag == 0 {
		return maxDiff
	}
	return maxDiff / maxMag
}

// allSizes is every length the engine supports in the test budget, 2^k
// and 3·2^k. Odd k (2, 8, 32, 128, 512; 6, 24, 96, 384) exercises the
// trailing radix-2 pass after the fused radix-4 stages; even k (4, 16,
// 64, 256, 1024; 3, 12, 48, 192, 768) runs pure fused stages. Every
// 3·2^k length starts with the radix-3 pass.
var allSizes = []int{2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512, 768, 1024}

func TestForwardMatchesNaiveDFTAllSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const tol = 1e-9
	for _, n := range allSizes {
		x := randComplex(rng, n)
		want := naiveDFT(x, false)
		got := append([]complex128(nil), x...)
		Forward(got)
		if e := relError(got, want); e > tol {
			t.Errorf("n=%d: forward rel error %.3g > %.0g", n, e, tol)
		}
	}
}

func TestInverseMatchesNaiveDFTAllSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	const tol = 1e-9
	for _, n := range allSizes {
		x := randComplex(rng, n)
		want := naiveDFT(x, true)
		got := append([]complex128(nil), x...)
		Inverse(got)
		if e := relError(got, want); e > tol {
			t.Errorf("n=%d: inverse rel error %.3g > %.0g", n, e, tol)
		}
	}
}

func TestRoundTripAllSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for _, n := range allSizes {
		x := randComplex(rng, n)
		got := append([]complex128(nil), x...)
		Forward(got)
		Inverse(got)
		if e := relError(got, x); e > 1e-12 {
			t.Errorf("n=%d: round-trip rel error %.3g", n, e)
		}
	}
}

// TestPlanStageStructure pins the fused-stage decomposition of
// n = r·2^k: a 3·2^k plan opens with one radix-3 pass of span 3, then
// even k is all radix-4, odd k ends with exactly one radix-2 pass over
// the full length.
func TestPlanStageStructure(t *testing.T) {
	for _, n := range allSizes {
		p := planFor(n)
		r := radixOf(n)
		k := 0
		for r<<k < n {
			k++
		}
		wantStages := k/2 + k%2
		if r == 3 {
			wantStages++
		}
		wantTail := k%2 == 1
		if len(p.stages) != wantStages {
			t.Fatalf("n=%d: %d stages, want %d", n, len(p.stages), wantStages)
		}
		for i, s := range p.stages {
			last := i == len(p.stages)-1
			switch {
			case i == 0 && r == 3:
				if s.kind != radix3 || s.size != 3 {
					t.Fatalf("n=%d: first stage kind %d size %d, want radix-3 size 3", n, s.kind, s.size)
				}
			case last && wantTail:
				if s.kind != radix2 || s.size != n {
					t.Fatalf("n=%d: tail stage kind %d size %d, want radix-2 size %d", n, s.kind, s.size, n)
				}
			case s.kind != radix4:
				t.Fatalf("n=%d: stage %d has kind %d, want radix-4", n, i, s.kind)
			}
		}
	}
}

func BenchmarkForward1D(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{256, 512, 1024} {
		x := randComplex(rng, n)
		b.Run(sizeName(n), func(b *testing.B) {
			buf := append([]complex128(nil), x...)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Forward(buf)
			}
		})
	}
}

func sizeName(n int) string {
	return "n=" + itoa(n)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
