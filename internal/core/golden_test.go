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
	"mgsilt/internal/litho"
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
// last recorded with PR 23's conjugate-pair fold of the Hopkins sum, which
// moves every mask at rounding level.
//
// A row with a fidelity schedule also shows that the schedule truncates:
// it must evaluate fewer kernels than the same flow at full fidelity and
// end on a different mask. The default source folds to six equal weights,
// so a budget above 5/6 drops nothing, and below 24 iterations the
// truncated stage is too short to leave a trace in the final mask: either
// way the row would pin the full-fidelity flow a second time.
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
			want:   "0d4c29c7a04393e3a9805edc32233a21011b2e57d1f3e8b9da5571a72cc48666",
		},
		{
			name:   "multigrid-schwarz/pv-weight",
			iters:  8,
			mutate: func(_ *testing.T, c *Config) { c.PVWeight = 0.5 },
			run:    MultigridSchwarz,
			target: func(t *testing.T) *grid.Mat { return testClipTarget(t, 5) },
			want:   "26cf36d031f2a603079f98f7555ec25536a7915d251d06cd8911e173aebbbd1f",
		},
		{
			name:   "multigrid-schwarz/fidelity-schedule",
			iters:  24,
			mutate: func(_ *testing.T, c *Config) { c.FidelitySchedule = []float64{0.6, 1} },
			run:    MultigridSchwarz,
			target: func(t *testing.T) *grid.Mat { return testClipTarget(t, 6) },
			want:   "130e224d7a16a83c76896cab8f949fa78a20eaac24721998bf4ec23c27ea9e44",
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
			want:   "77ee2a0878fd17f828b1d93828f00ab3934f9c25282fe7cd59aee119e86de8c3",
		},
		{
			name:   "full-chip",
			iters:  6,
			run:    FullChip,
			target: func(t *testing.T) *grid.Mat { return testClipTarget(t, 7) },
			want:   "25874f98d6d5dcd733c1f93197a917b728bf244054fec7da26d4b458b3d3d825",
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
			target := tc.target(t)
			before := litho.KernelsEvaluatedTotal()
			res, err := tc.run(cfg, target)
			if err != nil {
				t.Fatal(err)
			}
			evaluated := litho.KernelsEvaluatedTotal() - before
			if got := maskHash(res.Mask); got != tc.want {
				t.Errorf("mask hash %s, want %s", got, tc.want)
			}
			if cfg.FidelitySchedule != nil {
				cfg.FidelitySchedule = nil
				fullRes, err := tc.run(cfg, target)
				if err != nil {
					t.Fatal(err)
				}
				if full := litho.KernelsEvaluatedTotal() - before - evaluated; evaluated >= full {
					t.Errorf("evaluated %d kernels, not below full fidelity's %d: the schedule truncates nothing", evaluated, full)
				}
				if res.Mask.Equal(fullRes.Mask) {
					t.Error("the schedule's mask is the full-fidelity mask: the row pins nothing of its own")
				}
			}
		})
	}
}
