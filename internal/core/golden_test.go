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

// TestGoldenMaskHash pins the final mask of every flow family to the
// bits the commit before PR 13 produced (the hashes were generated there,
// before the FFT engine was touched). A change that is meant to be
// bit-identical — an engine rewrite, a refactor, a new backend — fails
// here if it moves one bit; a change that is meant to move results
// regenerates the constants and says so.
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
			want:   "7d2534b2c124ae353da5f9d7008afbf088f1d09d06d59c7ba4825327de4ab02d",
		},
		{
			name:   "multigrid-schwarz/pv-weight",
			iters:  8,
			mutate: func(_ *testing.T, c *Config) { c.PVWeight = 0.5 },
			run:    MultigridSchwarz,
			target: func(t *testing.T) *grid.Mat { return testClipTarget(t, 5) },
			want:   "c9b28142d11dbd867fce53fa378d0c28587a5d90ae68b05a1e2df85df986d36b",
		},
		{
			name:   "multigrid-schwarz/fidelity-schedule",
			iters:  8,
			mutate: func(_ *testing.T, c *Config) { c.FidelitySchedule = []float64{0.9, 1} },
			run:    MultigridSchwarz,
			target: func(t *testing.T) *grid.Mat { return testClipTarget(t, 6) },
			want:   "3855329e77f9f0d6aecc04bf62c42522160e8936d16670efe0e3abbe0ff03fce",
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
			want:   "7134921643082361bb9ca292a7c29a5bbbe2eea7b023cad13346e78f852cc333",
		},
		{
			name:   "full-chip",
			iters:  6,
			run:    FullChip,
			target: func(t *testing.T) *grid.Mat { return testClipTarget(t, 7) },
			want:   "0c3feda70e4d1d8bc6a78060843dcef9284496e99f687ebbc7671eb2c2e2356d",
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
