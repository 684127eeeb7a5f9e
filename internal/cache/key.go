// Package cache provides a content-addressed cache for tile solve
// results. A tile solve is a pure function of its inputs — the
// tile-local target and initial mask, the Dirichlet freeze mask, the
// optics (kernel set + resist), the solver configuration, and the
// solve parameters — so its result can be keyed by a canonical hash of
// exactly those inputs and reused wherever they recur: repeated
// standard cells within one layout, identical clips across jobs, or
// the same job resubmitted. Keys are translation-invariant by
// construction (they hash tile-local data only, never layout
// coordinates), which is what makes repeated-cell layouts cacheable.
//
// The cache stores results verbatim, so a hit is bit-identical to the
// solve that produced it, preserving the repository's determinism
// contract end to end.
package cache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"

	"mgsilt/internal/grid"
)

// codeVersion names the tile-solve numerics the cached results were
// produced by. Bump it whenever a change to the solvers or the litho
// model alters solve outputs without altering any hashed input, so
// stale spill directories invalidate themselves. v2: the reduced-grid
// Hopkins engine moved solver-path results at the 1e-15 level. v3: no
// result moved; the key lost the Plain field, so keys of the two
// layouts must not be compared. v4: litho evaluates conjugate kernel
// pairs once, which moved every solve at rounding level while the
// simulator fingerprint (a hash of the kernel sets as given) stayed.
const codeVersion = "mgsilt-tile-solve-v4"

// keyMagic versions the key serialisation itself. v2 added a per-solve
// kernel energy budget; v3 removed it again, so a key of either layout
// never equals one of the other.
const keyMagic = "mgsilt-tile-key v3\n"

// Key is the content address of one tile solve: a SHA-256 over the
// canonical serialisation of every solve input.
type Key [sha256.Size]byte

// String renders the key as lowercase hex — the spill file basename.
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// KeyInput collects every input a tile solve result depends on.
// Target and Init are tile-local crops; Freeze may be nil (no
// Dirichlet condition). Optics and Solver are the configuration
// fingerprints of the simulator and solver (see litho.Simulator
// .Fingerprint and opt.Fingerprinter) — required, since two solvers
// with different physics must never collide.
type KeyInput struct {
	Optics string
	Solver string

	Iters    int
	Stretch  int
	LR       float64
	PVWeight float64

	Target *grid.Mat
	Init   *grid.Mat
	Freeze *grid.Mat
}

// Key computes the canonical content address of the solve described
// by in. Every field is framed unambiguously (length-prefixed strings,
// fixed-width numbers, dimension-prefixed matrices), so distinct
// inputs cannot serialise to the same byte stream.
func (in KeyInput) Key() (Key, error) { return in.keyAt(codeVersion) }

// keyAt is Key under an explicit code version.
func (in KeyInput) keyAt(version string) (Key, error) {
	var k Key
	if in.Optics == "" || in.Solver == "" {
		return k, fmt.Errorf("cache: optics and solver fingerprints are required")
	}
	if in.Target == nil || in.Init == nil {
		return k, fmt.Errorf("cache: target and init are required")
	}
	if !in.Target.SameShape(in.Init) {
		return k, fmt.Errorf("cache: target %dx%d does not match init %dx%d", in.Target.H, in.Target.W, in.Init.H, in.Init.W)
	}
	if in.Freeze != nil && !in.Freeze.SameShape(in.Target) {
		return k, fmt.Errorf("cache: freeze %dx%d does not match tile %dx%d", in.Freeze.H, in.Freeze.W, in.Target.H, in.Target.W)
	}
	if in.Iters < 0 || in.Stretch < 1 {
		return k, fmt.Errorf("cache: bad solve schedule (iters %d, stretch %d)", in.Iters, in.Stretch)
	}
	if !finite(in.LR) || !finite(in.PVWeight) {
		return k, fmt.Errorf("cache: non-finite solve parameters (lr %v, pv %v)", in.LR, in.PVWeight)
	}

	h := sha256.New()
	w := keyWriter{h: h}
	w.str(keyMagic)
	w.str(version)
	w.str(in.Optics)
	w.str(in.Solver)
	w.u64(uint64(in.Iters))
	w.u64(uint64(in.Stretch))
	w.f64(in.LR)
	w.f64(in.PVWeight)
	w.mat(in.Target)
	w.mat(in.Init)
	w.mat(in.Freeze)
	h.Sum(k[:0])
	return k, nil
}

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// keyWriter serialises the key fields into a hash with unambiguous
// framing. Hash writes never fail, so no errors are threaded.
type keyWriter struct {
	h   hash.Hash
	buf [8]byte
}

func (w *keyWriter) u64(v uint64) {
	binary.BigEndian.PutUint64(w.buf[:], v)
	w.h.Write(w.buf[:])
}

func (w *keyWriter) f64(v float64) { w.u64(math.Float64bits(v)) }

func (w *keyWriter) str(s string) {
	w.u64(uint64(len(s)))
	w.h.Write([]byte(s))
}

// mat hashes a matrix as (tag, H, W, raw float64 bits). A nil matrix
// hashes as a bare zero tag, distinct from any present matrix.
func (w *keyWriter) mat(m *grid.Mat) {
	if m == nil {
		w.u64(0)
		return
	}
	w.u64(1)
	w.u64(uint64(m.H))
	w.u64(uint64(m.W))
	// Chunked encode: bounded scratch regardless of tile size.
	var chunk [512 * 8]byte
	for off := 0; off < len(m.Data); off += 512 {
		end := off + 512
		if end > len(m.Data) {
			end = len(m.Data)
		}
		b := chunk[:0]
		for _, v := range m.Data[off:end] {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		w.h.Write(b)
	}
}
