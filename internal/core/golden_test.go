package core

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"testing"

	"mgsilt/internal/device"
	"mgsilt/internal/grid"
	"mgsilt/internal/sched"
)

// maskHash is the SHA-256 of the mask's float64 bits, row-major, little
// endian.
func maskHash(m *grid.Mat) string {
	h := sha256.New()
	var b [8]byte
	for _, v := range m.Data {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestGoldenMaskHash pins the final mask of every flow family. A change
// that is meant to be bit-identical — an engine rewrite, a refactor, a
// new backend — fails here if it moves one bit; a change that is meant to
// move results regenerates the constants and says so. The constants were
// last recorded with the table-driven exponential of litho.Sigmoid in the
// mask and resist sweeps, which moves every mask at rounding level.
//
// The hashes are amd64 facts, not portable ones. arm64 contracts a·b+c
// into fused multiply-adds (and other ports carry their own math.Exp and
// math.Log), so its bits differ; CI only vets arm64 and never records
// them there. On amd64 the AVX2 twins and the Go loops give the same
// bits, so the hashes hold with AVX2 and without.
func TestGoldenMaskHash(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden hashes are recorded on amd64, not %s", runtime.GOARCH)
	}
	sim := testSim(t)

	cases := []struct {
		name   string
		iters  int
		mutate func(*testing.T, *Config)
		run    func(Config, *grid.Mat) (*Result, error)
		target func(*testing.T) *grid.Mat
		want   string
	}{
		{
			name:   "multigrid-schwarz",
			iters:  8,
			run:    MultigridSchwarz,
			target: func(t *testing.T) *grid.Mat { return testClipTarget(t, 4) },
			want:   "ac60858a1a9b2b81a11cca782e003730dd0dd2ce9ccd33dd5cb7a4eba38b7b01",
		},
		{
			name:   "multigrid-schwarz/pv-weight",
			iters:  8,
			mutate: func(_ *testing.T, c *Config) { c.PVWeight = 0.5 },
			run:    MultigridSchwarz,
			target: func(t *testing.T) *grid.Mat { return testClipTarget(t, 5) },
			want:   "948195c1f24b551ff6b066d4a2576d6c13dfbdaf4baae7356c28f26b53d325d0",
		},
		{
			name:  "divide-and-conquer/batched",
			iters: 8,
			mutate: func(t *testing.T, c *Config) {
				cl, err := device.NewCluster(4, 0)
				if err != nil {
					t.Fatal(err)
				}
				c.Cluster = cl
				c.Batch = sched.New(sched.Options{BatchSize: 4})
			},
			run:    DivideAndConquer,
			target: func(t *testing.T) *grid.Mat { return repeatTarget(t).Target },
			want:   "302d467fcd6f596c47d3dca681c637743b1f3e8e7de4aef1777c2531033324a1",
		},
		{
			name:   "full-chip",
			iters:  6,
			run:    FullChip,
			target: func(t *testing.T) *grid.Mat { return testClipTarget(t, 7) },
			want:   "3282dc2db01f36dba4eb07b2c7883124406b3c9513a40d6e8b18b84cef1dd2f9",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig(t, sim, tc.iters)
			if tc.mutate != nil {
				tc.mutate(t, &cfg)
				if err := cfg.Validate(); err != nil {
					t.Fatal(err)
				}
			}
			res, err := tc.run(cfg, tc.target(t))
			if err != nil {
				t.Fatal(err)
			}
			if got := maskHash(res.Mask); got != tc.want {
				t.Errorf("mask hash %s, want %s", got, tc.want)
			}
		})
	}
}
