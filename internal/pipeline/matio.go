package pipeline

import (
	"encoding/binary"
	"io"
	"math"
	"slices"
	"sync"

	"mgsilt/internal/grid"
)

// Mat payload encoding shared by the on-disk checkpoint format and the
// shard wire format (internal/shard): H·W float64 values, little-endian,
// row-major. Exporting the payload codec here keeps every serialised
// mask in the repository byte-compatible — a checkpoint's payload bytes
// and a shard solve response's payload bytes are the same encoding.

// payloadChunk is the values the codec moves per Write or ReadFull.
const payloadChunk = 4096

// minGrow is the least capacity ReadFloats grows a destination to.
const minGrow = 512

// payloadScratch recycles the codec's byte scratch of one chunk, so
// encoding and decoding allocate nothing of their own; checkpoints, the
// cache spill, concurrent coordinator rounds and worker handlers share it.
var payloadScratch = sync.Pool{New: func() any { return new([8 * payloadChunk]byte) }}

// AppendFloats appends the payload encoding of vals to dst.
func AppendFloats(dst []byte, vals []float64) []byte {
	n := len(dst)
	dst = slices.Grow(dst, 8*len(vals))[:n+8*len(vals)]
	b := dst[n:]
	for i, v := range vals {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
	}
	return dst
}

// WriteMatData writes m's values as little-endian float64s, row-major.
func WriteMatData(w io.Writer, m *grid.Mat) error {
	scratch := payloadScratch.Get().(*[8 * payloadChunk]byte)
	defer payloadScratch.Put(scratch)
	for vals := m.Data; len(vals) > 0; {
		k := min(len(vals), payloadChunk)
		if _, err := w.Write(AppendFloats(scratch[:0], vals[:k])); err != nil {
			return err
		}
		vals = vals[k:]
	}
	return nil
}

// ReadMatData reads an h×w mat payload written by WriteMatData. The
// result matrix grows incrementally as bytes actually arrive, so a
// hostile header promising a huge payload over a short stream cannot
// provoke a large up-front allocation: memory use is proportional to
// the data read, never to the claimed dimensions.
func ReadMatData(r io.Reader, h, w int) (*grid.Mat, error) {
	data, err := ReadFloats(r, nil, h*w, h*w)
	if err != nil {
		return nil, err
	}
	return &grid.Mat{H: h, W: w, Data: data}, nil
}

// ReadFloats reads n payload values from r and appends them to dst. The
// destination grows only as chunks of at most 4 096 values arrive: to
// fit the chunk, to 512 values or to double its capacity, whichever is
// largest, and never past limit values unless the n values need it. So
// memory stays proportional to the bytes received, a whole mask of up
// to 4 096 values is one exact allocation, and one dst can collect the
// values of many short reads (a patch's runs) in a few.
func ReadFloats(r io.Reader, dst []float64, n, limit int) ([]float64, error) {
	scratch := payloadScratch.Get().(*[8 * payloadChunk]byte)
	defer payloadScratch.Put(scratch)
	for n > 0 {
		k := min(n, payloadChunk)
		b := scratch[:8*k]
		if _, err := io.ReadFull(r, b); err != nil {
			return nil, err
		}
		if len(dst)+k > cap(dst) {
			grown := make([]float64, len(dst), max(len(dst)+k, min(max(2*cap(dst), minGrow), limit)))
			copy(grown, dst)
			dst = grown
		}
		out := dst[len(dst) : len(dst)+k]
		for i := range out {
			out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		}
		dst = dst[:len(dst)+k]
		n -= k
	}
	return dst, nil
}
