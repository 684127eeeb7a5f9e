package fft

import (
	"math/rand"
	"runtime"
	"testing"

	"mgsilt/internal/grid"
	"mgsilt/internal/parallel"
)

func randBatch(rng *rand.Rand, k, h, w int) []*grid.CMat {
	ms := make([]*grid.CMat, k)
	for i := range ms {
		ms[i] = randCMat(rng, h, w)
	}
	return ms
}

func cloneBatch(ms []*grid.CMat) []*grid.CMat {
	out := make([]*grid.CMat, len(ms))
	for i, m := range ms {
		out[i] = m.Clone()
	}
	return out
}

// TestBatch2DBitIdenticalToLooped pins the core Batch2D contract: the
// batched pass produces the same bits as calling Forward2D/Inverse2D
// on each matrix, for both directions, at worker counts 1, 2 and
// NumCPU, above and below the parallel crossover.
func TestBatch2DBitIdenticalToLooped(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	prev := parallel.Workers()
	defer parallel.SetWorkers(prev)
	parallel.SetWorkers(1)

	cases := []struct{ k, n int }{
		{1, 32},  // single matrix, below crossover
		{5, 64},  // small batch, below crossover
		{3, 256}, // above crossover
		{6, 24},  // 3·2^k, below crossover
		{3, 48},  // 3·2^k, above crossover
		{2, 96},  // 3·2^k with the radix-2 tail, above crossover
	}
	for _, c := range cases {
		src := randBatch(rng, c.k, c.n, c.n)
		for _, dir := range []Dir{DirForward, DirInverse} {
			// Reference: serial per-matrix transforms.
			parallel.SetWorkers(1)
			want := cloneBatch(src)
			for _, m := range want {
				if dir == DirForward {
					Forward2D(m)
				} else {
					Inverse2D(m)
				}
			}
			for _, workers := range []int{1, 2, runtime.NumCPU()} {
				parallel.SetWorkers(workers)
				got := cloneBatch(src)
				Batch2D(got, dir)
				for i := range want {
					for j := range want[i].Data {
						if got[i].Data[j] != want[i].Data[j] {
							t.Fatalf("k=%d n=%d dir=%d workers=%d: matrix %d element %d differs",
								c.k, c.n, dir, workers, i, j)
						}
					}
				}
			}
		}
	}
}

// TestBatch2DLimitBitIdentity checks the batched transform with its
// fan-out capped: any limit must reproduce the limit=1 bits exactly.
func TestBatch2DLimitBitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	prev := parallel.Workers()
	defer parallel.SetWorkers(prev)
	parallel.SetWorkers(runtime.NumCPU())

	src := randBatch(rng, 4, 256, 256)
	ref := cloneBatch(src)
	xform2D{}.batch(ref, 1)
	for _, limit := range []int{2, 3, 0} {
		got := cloneBatch(src)
		xform2D{}.batch(got, limit)
		for i := range ref {
			if !got[i].AlmostEqual(ref[i], 0) {
				t.Fatalf("limit=%d: matrix %d not bit-identical", limit, i)
			}
		}
	}
}

// TestBatch2DRoundTrip feeds a batch forward then inverse and expects
// the originals back to roundoff.
func TestBatch2DRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	src := randBatch(rng, 6, 64, 64)
	work := cloneBatch(src)
	Batch2D(work, DirForward)
	Batch2D(work, DirInverse)
	for i := range src {
		if !work[i].AlmostEqual(src[i], 1e-10) {
			t.Fatalf("matrix %d: batch round-trip error exceeds 1e-10", i)
		}
	}
}

func TestBatch2DEmptyBatchIsNoOp(t *testing.T) {
	Batch2D(nil, DirForward)
	Batch2D([]*grid.CMat{}, DirInverse)
}

func TestBatch2DShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on mixed-shape batch")
		}
	}()
	Batch2D([]*grid.CMat{grid.NewCMat(8, 8), grid.NewCMat(16, 16)}, DirForward)
}

func BenchmarkBatch2D(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	for _, k := range []int{4, 12} {
		ms := randBatch(rng, k, 256, 256)
		b.Run("k="+itoa(k), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Batch2D(ms, DirForward)
			}
		})
	}
}
