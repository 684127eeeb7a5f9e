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
	"mgsilt/internal/pipeline"
)

// codeVersion names the tile-solve numerics the cached results were
// produced by. Bump it whenever a change to the solvers or the litho
// model alters solve outputs without altering any hashed input, so
// stale spill directories invalidate themselves. v2: the reduced-grid
// Hopkins engine moved solver-path results at the 1e-15 level. v3: no
// result moved; the key lost the Plain field, so keys of the two
// layouts must not be compared. v4: litho evaluates conjugate kernel
// pairs once, which moved every solve at rounding level while the
// simulator fingerprint (a hash of the kernel sets as given) stayed. v5:
// the Hopkins sums run on 3·2^k reduced grids and end in real-output
// inverses, which moved every solve at rounding level again. v6: the
// mask and resist sigmoids take e^x from a table-driven exponential
// instead of math.Exp, a few ulps apart.
const codeVersion = "mgsilt-tile-solve-v6"

// keyMagic versions the key serialisation itself. v2 added a per-solve
// kernel energy budget; v3 removed it again, so a key of either layout
// never equals one of the other. v4 frames binary planes as packed bits.
const keyMagic = "mgsilt-tile-key v4\n"

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
	h    hash.Hash
	buf  [8]byte
	bits []byte // a binary plane's packed payload, reused across planes
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

// Matrix tags. A nil matrix hashes as a bare tagNil, distinct from any
// present matrix; the two framings of a present one carry their own tag,
// so no plane of one framing hashes like a plane of the other.
const (
	tagNil uint64 = iota
	tagRaw
	tagBinary
)

// mat hashes a matrix as (tag, H, W, payload). A binary plane — every
// value exactly +0 or 1.0, as targets, freeze masks and binarised
// masks are — is tagBinary with its values packed 64 to a little-endian
// word in row-major order, value i at bit i%64 and the last word padded
// with zeros. Any other plane is tagRaw with the raw float64 bits, the
// payload encoding of checkpoints and the shard wire.
func (w *keyWriter) mat(m *grid.Mat) {
	if m == nil {
		w.u64(tagNil)
		return
	}
	if n := 8 * ((len(m.Data) + 63) / 64); cap(w.bits) < n {
		w.bits = make([]byte, 0, n)
	}
	bits, packed := packBinary(w.bits[:0], m.Data)
	w.bits = bits
	if packed {
		w.u64(tagBinary)
	} else {
		w.u64(tagRaw)
	}
	w.u64(uint64(m.H))
	w.u64(uint64(m.W))
	if packed {
		w.h.Write(bits)
	} else {
		pipeline.WriteMatData(w.h, m)
	}
}

// one is the bit pattern of 1.0.
const one = 0x3ff0000000000000

// packBinary appends vals packed 64 to a little-endian word to dst and
// reports whether every value is +0 or 1.0; it stops at the first word
// that holds another value, and then dst's contents mean nothing. Bit 52
// of +0 and 1.0 is their value, so the test and the packing are
// branch-free within a word.
func packBinary(dst []byte, vals []float64) ([]byte, bool) {
	for len(vals) > 0 {
		n := min(len(vals), 64)
		var word, stray uint64
		for i, v := range vals[:n] {
			b := math.Float64bits(v)
			bit := b >> 52 & 1
			stray |= b ^ bit*one
			word |= bit << uint(i)
		}
		if stray != 0 {
			return dst, false
		}
		dst = binary.LittleEndian.AppendUint64(dst, word)
		vals = vals[n:]
	}
	return dst, true
}
