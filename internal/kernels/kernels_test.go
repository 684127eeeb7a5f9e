package kernels

import (
	"math"
	"math/cmplx"
	"testing"
)

func testConfig() Config { return DefaultConfig(128) }

func TestValidate(t *testing.T) {
	good := testConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []Config{
		{N: 100, Cutoff: 10, SigmaIn: 0.4, SigmaOut: 0.8, Rings: 1, PointsPerRing: 4}, // non pow2
		{N: 128, Cutoff: 0, SigmaIn: 0.4, SigmaOut: 0.8, Rings: 1, PointsPerRing: 4},
		{N: 128, Cutoff: 64, SigmaIn: 0.4, SigmaOut: 0.8, Rings: 1, PointsPerRing: 4}, // >= N/4
		{N: 128, Cutoff: 10, SigmaIn: 0.8, SigmaOut: 0.4, Rings: 1, PointsPerRing: 4},
		{N: 128, Cutoff: 10, SigmaIn: 0.4, SigmaOut: 1.5, Rings: 1, PointsPerRing: 4},
		{N: 128, Cutoff: 10, SigmaIn: 0.4, SigmaOut: 0.8, Rings: 0, PointsPerRing: 4},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("case %d should be invalid", i)
		}
	}
}

func TestGenerateBasicStructure(t *testing.T) {
	set := MustGenerate(testConfig())
	if set.N != 128 {
		t.Fatalf("N=%d", set.N)
	}
	wantK := testConfig().Rings * testConfig().PointsPerRing
	if len(set.Kernels) != wantK {
		t.Fatalf("kernel count %d want %d", len(set.Kernels), wantK)
	}
	if set.P <= 0 || set.P > set.N || set.P%2 != 0 {
		t.Fatalf("bad support %d", set.P)
	}
}

// weightSum is Σw over the set (1 after normalisation).
func weightSum(s *Set) float64 {
	sum := 0.0
	for _, k := range s.Kernels {
		sum += k.Weight
	}
	return sum
}

// clearField is the aerial intensity a fully clear mask images to:
// Σ w_k·|H_k(DC)|².
func clearField(s *Set) float64 {
	sum := 0.0
	c := s.N / 2
	for _, k := range s.Kernels {
		v := k.Freq.At(c, c)
		sum += k.Weight * (real(v)*real(v) + imag(v)*imag(v))
	}
	return sum
}

func TestWeightsNormalised(t *testing.T) {
	set := MustGenerate(testConfig())
	if math.Abs(weightSum(set)-1) > 1e-12 {
		t.Fatalf("weight sum %v", weightSum(set))
	}
	for i, k := range set.Kernels {
		if k.Weight <= 0 {
			t.Fatalf("kernel %d has non-positive weight", i)
		}
	}
}

func TestClearFieldNearUnity(t *testing.T) {
	set := MustGenerate(testConfig())
	// Every source point lies inside the pupil (sigmaOut < 1), so each
	// kernel has |H(DC)| ≈ 1 and the clear field is ≈ Σw = 1.
	if cf := clearField(set); math.Abs(cf-1) > 0.05 {
		t.Fatalf("clear field intensity %v, want ≈1", cf)
	}
}

func TestSupportRespected(t *testing.T) {
	set := MustGenerate(testConfig())
	c := set.N / 2
	for ki, k := range set.Kernels {
		for y := 0; y < set.N; y++ {
			for x := 0; x < set.N; x++ {
				if k.Freq.At(y, x) != 0 {
					if y < c-set.P/2 || y >= c+set.P/2 || x < c-set.P/2 || x >= c+set.P/2 {
						t.Fatalf("kernel %d has energy outside support at %d,%d", ki, y, x)
					}
				}
			}
		}
	}
}

func TestNominalKernelsAreReal(t *testing.T) {
	set := MustGenerate(testConfig())
	for ki, k := range set.Kernels {
		for _, v := range k.Freq.Data {
			if math.Abs(imag(v)) > 1e-12 {
				t.Fatalf("kernel %d: nominal focus should have real pupil, got %v", ki, v)
			}
		}
	}
}

func TestDefocusAddsPhase(t *testing.T) {
	cfg := testConfig()
	def, err := Defocused(cfg, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if def.Defocus != 1.0 {
		t.Fatalf("defocus field %v", def.Defocus)
	}
	// Off-axis pupil samples must carry non-trivial phase.
	foundPhase := false
	for _, k := range def.Kernels {
		for _, v := range k.Freq.Data {
			if cmplx.Abs(v) > 0.1 && math.Abs(imag(v)) > 0.01 {
				foundPhase = true
			}
		}
	}
	if !foundPhase {
		t.Fatal("defocused kernels carry no phase")
	}
	// Defocus must not change total pupil energy (pure phase).
	nom := MustGenerate(cfg)
	for i := range nom.Kernels {
		var en, ed float64
		for j := range nom.Kernels[i].Freq.Data {
			en += sq(nom.Kernels[i].Freq.Data[j])
			ed += sq(def.Kernels[i].Freq.Data[j])
		}
		if math.Abs(en-ed) > 1e-9*en {
			t.Fatalf("kernel %d energy changed under defocus: %v vs %v", i, en, ed)
		}
	}
}

func sq(v complex128) float64 { return real(v)*real(v) + imag(v)*imag(v) }

func TestResampledFullArea(t *testing.T) {
	set := MustGenerate(testConfig())
	rs := set.Resampled(set.N*2, 2)
	if rs.N != 256 || rs.P != set.P*2 {
		t.Fatalf("resampled N=%d P=%d", rs.N, rs.P)
	}
	// DC must be preserved per kernel.
	for i := range set.Kernels {
		a := set.Kernels[i].Freq.At(set.N/2, set.N/2)
		b := rs.Kernels[i].Freq.At(rs.N/2, rs.N/2)
		if cmplx.Abs(a-b) > 1e-12 {
			t.Fatalf("kernel %d DC changed: %v vs %v", i, a, b)
		}
	}
	if math.Abs(clearField(rs)-clearField(set)) > 1e-9 {
		t.Fatal("clear field must be invariant under resampling")
	}
}

func TestResampledCoarseGrid(t *testing.T) {
	set := MustGenerate(testConfig())
	rs := set.Resampled(set.N, 2) // Eq. (9): same grid, stretch 2
	if rs.N != set.N {
		t.Fatalf("coarse resample changed N: %d", rs.N)
	}
	// Support diameter doubles (clamped at N).
	want := set.P * 2
	if want > set.N {
		want = set.N
	}
	if rs.P != want {
		t.Fatalf("coarse support %d want %d", rs.P, want)
	}
}

func TestGenerateRejectsOversizedSupport(t *testing.T) {
	cfg := Config{N: 32, Cutoff: 7.9, SigmaIn: 0.4, SigmaOut: 1.0, Rings: 1, PointsPerRing: 4}
	// cutoff·(1+sigmaOut) = 15.8 → support 34 > 32.
	if _, err := Generate(cfg); err == nil {
		t.Fatal("expected support-too-large error")
	}
}

func BenchmarkGenerate128(b *testing.B) {
	cfg := DefaultConfig(128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MustGenerate(cfg)
	}
}
