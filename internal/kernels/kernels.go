// Package kernels builds the band-limited optical kernel sets that
// drive the Hopkins-model lithography simulation (Eq. 1).
//
// The ICCAD-2013 contest distributes pre-computed TCC (transmission
// cross-coefficient) kernels for a fixed N=2048 grid. That data is not
// redistributable, so this package synthesises a physically-shaped
// equivalent from first principles using the Abbe source-point
// decomposition of partially coherent imaging: an annular illumination
// source is sampled at discrete points s_k, and each point contributes
// a coherent kernel
//
//	H_k(f) = P(f + s_k),
//
// where P is the circular pupil (optionally carrying a quadratic
// defocus phase). The aerial image is then
//
//	I = Σ_k w_k · |F⁻¹(H_k ⊙ F(M))|²,
//
// exactly the SOCS structure the contest kernels have. Every kernel is
// band-limited to a centred P×P support, matching the [·]_P extraction
// of Eq. (2), and weights are normalised so that a clear mask images to
// unit intensity.
package kernels

import (
	"fmt"
	"math"
	"math/cmplx"

	"mgsilt/internal/fft"
	"mgsilt/internal/grid"
)

// Kernel is one coherent kernel of the SOCS/Abbe decomposition: a
// centre-layout frequency-domain matrix plus its weight.
type Kernel struct {
	Freq   *grid.CMat // centre layout, N×N, zero outside the P×P support
	Weight float64
}

// Set is a complete kernel set for one focus condition.
type Set struct {
	N       int      // native simulation grid size
	P       int      // diameter of the centred low-pass support, in bins
	Defocus float64  // defocus in Rayleigh units (0 = nominal focus)
	Kernels []Kernel // the coherent kernels
}

// Config controls synthetic kernel generation.
type Config struct {
	// N is the native grid size (power of two).
	N int
	// Cutoff is the pupil cutoff radius in frequency bins of the N
	// grid. The smallest resolvable half-pitch is about N/(4·Cutoff)
	// pixels.
	Cutoff float64
	// SigmaIn and SigmaOut define the annular source as fractions of
	// the pupil cutoff (partial coherence factors). SigmaIn may be 0
	// for a disk source.
	SigmaIn, SigmaOut float64
	// Rings and PointsPerRing control the Abbe source sampling. The
	// total kernel count is Rings·PointsPerRing (plus one for an axial
	// point when SigmaIn == 0).
	Rings, PointsPerRing int
	// Defocus is the defocus aberration in Rayleigh units; it adds the
	// quadratic pupil phase exp(iπ·Defocus·(|f|/Cutoff)²).
	Defocus float64
}

// DefaultConfig returns the nominal-focus configuration used by the
// experiment suite for a given native grid size, scaling the pupil
// cutoff so that feature proportions match across sizes.
func DefaultConfig(n int) Config {
	return Config{
		N:             n,
		Cutoff:        float64(n) / 21.3, // ≈12 bins at N=256; min half-pitch ≈5.3 px
		SigmaIn:       0.4,
		SigmaOut:      0.8,
		Rings:         2,
		PointsPerRing: 6,
	}
}

// Provenance returns a compact, deterministic description of the
// optics this configuration generates. Benchmark documents embed it so
// the regression gate can refuse to compare runs that exercised
// different kernel sets (cmd/benchdiff treats a mismatch as
// incomparable rather than producing a meaningless verdict).
func (c Config) Provenance() string {
	return fmt.Sprintf("abbe:n=%d,cutoff=%.5g,sigma=[%g,%g],rings=%dx%d,defocus=%g",
		c.N, c.Cutoff, c.SigmaIn, c.SigmaOut, c.Rings, c.PointsPerRing, c.Defocus)
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if !fft.IsPow2(c.N) {
		return fmt.Errorf("kernels: N=%d is not a power of two", c.N)
	}
	if c.Cutoff <= 0 || c.Cutoff >= float64(c.N)/4 {
		return fmt.Errorf("kernels: cutoff %v out of range (0, N/4)", c.Cutoff)
	}
	if c.SigmaIn < 0 || c.SigmaOut <= c.SigmaIn || c.SigmaOut > 1 {
		return fmt.Errorf("kernels: invalid annulus [%v, %v]", c.SigmaIn, c.SigmaOut)
	}
	if c.Rings < 1 || c.PointsPerRing < 1 {
		return fmt.Errorf("kernels: need at least one ring and one point, got %d×%d", c.Rings, c.PointsPerRing)
	}
	return nil
}

// Generate synthesises the kernel set described by cfg.
func Generate(cfg Config) (*Set, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// Support must hold the pupil shifted by the outermost source
	// point: radius = cutoff·(1 + sigmaOut).
	maxRadius := cfg.Cutoff * (1 + cfg.SigmaOut)
	p := 2 * (int(math.Ceil(maxRadius)) + 1)
	if p > cfg.N {
		return nil, fmt.Errorf("kernels: support %d exceeds grid %d", p, cfg.N)
	}
	set := &Set{N: cfg.N, P: p, Defocus: cfg.Defocus}

	type srcPoint struct{ fy, fx, w float64 }
	var pts []srcPoint
	if cfg.SigmaIn == 0 {
		pts = append(pts, srcPoint{0, 0, 1})
	}
	for r := 0; r < cfg.Rings; r++ {
		// Ring radii are spaced evenly across the annulus (midpoint rule).
		frac := (float64(r) + 0.5) / float64(cfg.Rings)
		radius := (cfg.SigmaIn + frac*(cfg.SigmaOut-cfg.SigmaIn)) * cfg.Cutoff
		for k := 0; k < cfg.PointsPerRing; k++ {
			// Stagger alternate rings to avoid angular aliasing.
			ang := 2*math.Pi*float64(k)/float64(cfg.PointsPerRing) + float64(r)*math.Pi/float64(cfg.PointsPerRing)
			pts = append(pts, srcPoint{radius * math.Sin(ang), radius * math.Cos(ang), 1})
		}
	}
	totalW := 0.0
	for _, pt := range pts {
		totalW += pt.w
	}

	c := cfg.N / 2
	for _, pt := range pts {
		h := grid.NewCMat(cfg.N, cfg.N)
		for y := c - p/2; y < c+p/2; y++ {
			for x := c - p/2; x < c+p/2; x++ {
				// Pupil frequency seen by this source point.
				fy := float64(y-c) + pt.fy
				fx := float64(x-c) + pt.fx
				rr := math.Hypot(fy, fx)
				if rr > cfg.Cutoff {
					continue
				}
				// Soft pupil edge (half-bin cosine roll-off) avoids
				// ringing from a hard circ function on a coarse grid.
				amp := 1.0
				if edge := cfg.Cutoff - rr; edge < 1 {
					amp = 0.5 - 0.5*math.Cos(math.Pi*edge)
				}
				phase := math.Pi * cfg.Defocus * (rr / cfg.Cutoff) * (rr / cfg.Cutoff)
				h.Set(y, x, complex(amp, 0)*cmplx.Exp(complex(0, phase)))
			}
		}
		set.Kernels = append(set.Kernels, Kernel{Freq: h, Weight: pt.w / totalW})
	}
	return set, nil
}

// MustGenerate is Generate for static configurations that cannot fail.
func MustGenerate(cfg Config) *Set {
	s, err := Generate(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Defocused returns a new set generated from cfg with the given defocus.
func Defocused(cfg Config, z float64) (*Set, error) {
	cfg.Defocus = z
	return Generate(cfg)
}
