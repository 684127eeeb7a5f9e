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
// last recorded with the 3·2^k reduced grids and real-output inverses of
// the Hopkins evaluation, which move every mask at rounding level.
//
// amd64 only: other architectures contract a·b+c into fused
// multiply-adds and carry their own math.Exp, so their bits differ.
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
			want:   "53b1d95ad924a34854b02aa77d182d22db70519d524d5174146890939327a04b",
		},
		{
			name:   "multigrid-schwarz/pv-weight",
			iters:  8,
			mutate: func(_ *testing.T, c *Config) { c.PVWeight = 0.5 },
			run:    MultigridSchwarz,
			target: func(t *testing.T) *grid.Mat { return testClipTarget(t, 5) },
			want:   "1a7ab411c1b1651def8c4ee459db703b096002cd7a0a30f8bd28830c7dc01354",
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
			want:   "263fc4931d2662df621cc1a8980edb1d6295abd8fb5d3339b5bdd6bfd9879cfa",
		},
		{
			name:   "full-chip",
			iters:  6,
			run:    FullChip,
			target: func(t *testing.T) *grid.Mat { return testClipTarget(t, 7) },
			want:   "72cdda2174d86d475788913dfdf75242a6626de35672af004ec5706f410584b9",
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
