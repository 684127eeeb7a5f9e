// Package shard distributes the stage-pipeline flows' tile fan-out
// across worker processes: a coordinator (core.TileBackend) partitions
// each barrier batch of tile solves over remote workers, and a worker
// RPC service solves its shard on a local device.Cluster. Between
// Schwarz stages only the overlap-halo strips travel: the coordinator
// mirrors each worker's last returned tile solution and ships the
// exact per-row difference between that base and the next stage's
// desired init — in the fine-Schwarz steady state that difference is
// the blended overlap frame, never the tile interior.
//
// All mask assembly, weighting and morphology stay on the coordinator,
// in tile-index order; workers execute only the deterministic pure
// tile solves. That is what makes the distributed result byte-identical
// to the in-process path at any shard count, and under mid-run worker
// loss with reassignment.
package shard

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"sync"
	"time"

	"mgsilt/internal/device"
	"mgsilt/internal/grid"
	"mgsilt/internal/opt"
	"mgsilt/internal/pipeline"
)

// Wire format: a line-oriented versioned text header followed by raw
// little-endian float64 payloads — deliberately the same mask payload
// codec as the versioned checkpoint format (pipeline.WriteMatData), so
// every serialised mask in the repository is byte-compatible. The
// header is human-inspectable; the decoder is hardened against hostile
// input (caps below, bounded line length, allocation proportional to
// bytes actually received).
//
// The version also stands for the solve numerics behind the wire: v3, v4
// and v5 changed no field, but a v2 worker sums the nominal Hopkins set
// over twelve kernels where this build folds them to six, a v3 worker
// evaluates it on power-of-two reduced grids where this build uses
// 3·2^k ones, and a v4 worker takes the sigmoids' e^x from math.Exp
// where this build uses a table-driven exponential; the tiles of any of
// them would differ from an in-process solve at rounding level.
const (
	wireMagic = "mgsilt-shard v5"
	// MaxWireTiles caps the tiles accepted in one request or response.
	MaxWireTiles = 4096
	// MaxWireSide caps mask dimensions on the wire, like the checkpoint
	// reader: a hostile header must not provoke a huge allocation.
	MaxWireSide = 4096
	// MaxSessionID bounds the session identifier length.
	MaxSessionID = 128
	// maxWireLine bounds one header line; longer input is an error
	// before it is buffered.
	maxWireLine = 1024
	// maxWireIters bounds the per-tile iteration budget a worker will
	// accept.
	maxWireIters = 1 << 20
)

// TileWire is one tile solve inside a SolveRequest. Target and Freeze
// may be sent once and referenced from the worker's session state on
// later stages (nil + the Cached flags); Init is either a full mask or
// a Patch against the worker's mirrored base (its previous solution
// for this tile).
type TileWire struct {
	// Index is the tile's index in its partition — the worker keys its
	// per-session state by it, and responses echo it.
	Index int
	// Pixels is the device working-set hint, forwarded to the worker's
	// cluster accounting exactly like device.Job.Pixels.
	Pixels int
	// Solve knobs (opt.Params, minus the coordinator-side context).
	Iters    int
	Stretch  int
	LR       float64
	PVWeight float64
	// Target is the tile-local target; nil with TargetCached set means
	// the worker already holds it for this session.
	Target       *grid.Mat
	TargetCached bool
	// Freeze is the Dirichlet freeze mask; nil with FreezeCached set
	// references session state, nil without it means no freeze.
	Freeze       *grid.Mat
	FreezeCached bool
	// Init is the full starting mask; nil means Patch applies to the
	// worker's mirrored base.
	Init *grid.Mat
	// Patch, when Init is nil, is the halo diff to apply to the base.
	Patch *Patch
}

// SolveRequest is one barrier batch of tile solves for one worker.
type SolveRequest struct {
	// Session scopes the worker's cached tile state (targets, freeze
	// masks, bases). The coordinator bumps it on reassignment so stale
	// state can never be referenced across epochs.
	Session string
	// N is the native simulator grid the worker must build optics for.
	N int
	// Solver selects φ(·) by opt registry name (opt.Names lists them);
	// empty defaults to opt.DefaultSolver.
	Solver string
	Tiles  []TileWire
}

// TileResult is one solved tile in a SolveResponse.
type TileResult struct {
	Index int
	Mask  *grid.Mat
}

// SolveResponse carries the solved tiles and the worker cluster's
// accounting delta for the batch. The wire carries six of its numbers:
// Jobs, Retries, TotalBusy, MaxBusy, SimElapsed (the batch's simulated
// makespan; the coordinator's virtual clock advances by the slowest
// shard's) and Transfer.
type SolveResponse struct {
	Stats device.Stats
	Tiles []TileResult
}

// Patch is a sparse bitwise diff between two same-shape masks: the
// row runs where the values differ. Applied to the base it reproduces
// the target mask exactly (bit-for-bit, including NaN payloads and
// signed zeros — runs are cut on Float64bits equality, not ==).
type Patch struct {
	H, W int
	Runs []Run
}

// Run is one contiguous horizontal segment of changed values. The Vals
// of a patch's runs may share one backing array (DiffPatch and the
// decoder build them that way), each capped at its own length.
type Run struct {
	Y, X0 int
	Vals  []float64
}

// payloadBytes is the patch's float payload size on the wire.
func (p *Patch) payloadBytes() int {
	n := 0
	for _, r := range p.Runs {
		n += 8 * len(r.Vals)
	}
	return n
}

// DiffPatch computes the sparse diff turning base into next. It
// returns nil when no patch is possible (nil or shape-mismatched
// base) — the caller then sends the full mask. The runs' values are
// copied out of next into one backing slice once all runs are known.
func DiffPatch(base, next *grid.Mat) *Patch {
	if base == nil || next == nil || !base.SameShape(next) {
		return nil
	}
	p := &Patch{H: next.H, W: next.W}
	nvals := 0
	for y := 0; y < next.H; y++ {
		rb, rn := base.Row(y), next.Row(y)
		for x := 0; x < next.W; {
			if math.Float64bits(rb[x]) == math.Float64bits(rn[x]) {
				x++
				continue
			}
			x0 := x
			for x < next.W && math.Float64bits(rb[x]) != math.Float64bits(rn[x]) {
				x++
			}
			// Vals views next until the backing slice is filled below.
			p.Runs = append(p.Runs, Run{Y: y, X0: x0, Vals: rn[x0:x]})
			nvals += x - x0
		}
	}
	vals := make([]float64, 0, nvals)
	for i := range p.Runs {
		r := &p.Runs[i]
		n := len(vals)
		vals = append(vals, r.Vals...)
		r.Vals = vals[n:len(vals):len(vals)]
	}
	return p
}

// Apply reconstructs the patched mask from base without mutating it.
func (p *Patch) Apply(base *grid.Mat) (*grid.Mat, error) {
	if base == nil || base.H != p.H || base.W != p.W {
		return nil, fmt.Errorf("shard: patch %dx%d does not fit base", p.H, p.W)
	}
	out := base.Clone()
	for _, r := range p.Runs {
		if r.Y < 0 || r.Y >= p.H || r.X0 < 0 || r.X0+len(r.Vals) > p.W {
			return nil, fmt.Errorf("shard: patch run out of bounds")
		}
		copy(out.Row(r.Y)[r.X0:], r.Vals)
	}
	return out, nil
}

// ValidSession reports whether id is a serialisable session
// identifier: 1..MaxSessionID characters from [A-Za-z0-9._-].
func ValidSession(id string) bool {
	if id == "" || len(id) > MaxSessionID {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// appendFbits appends a float64's exact IEEE-754 bits to the header as
// 16 lowercase hex digits, so solve parameters survive the text round
// trip bit-identically.
func appendFbits(b []byte, v float64) []byte {
	u := math.Float64bits(v)
	for shift := 60; shift >= 0; shift -= 4 {
		b = append(b, "0123456789abcdef"[u>>shift&0xf])
	}
	return b
}

func parseFbits(s []byte) (float64, error) {
	if len(s) != 16 {
		return 0, fmt.Errorf("shard: bad float bits %q", s)
	}
	var u uint64
	for _, c := range s {
		switch {
		case c >= '0' && c <= '9':
			c -= '0'
		case c >= 'a' && c <= 'f':
			c -= 'a' - 10
		case c >= 'A' && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, fmt.Errorf("shard: bad float bits %q", s)
		}
		u = u<<4 | uint64(c)
	}
	return math.Float64frombits(u), nil
}

// appendHeader appends the header line "word v1 v2 …".
func appendHeader(b []byte, word string, vs ...int64) []byte {
	b = append(b, word...)
	for _, v := range vs {
		b = append(b, ' ')
		b = strconv.AppendInt(b, v, 10)
	}
	return append(b, '\n')
}

// appendMatSection appends "name h w" and m's payload.
func appendMatSection(b []byte, name string, m *grid.Mat) ([]byte, error) {
	if err := checkSide(m.H, m.W); err != nil {
		return b, err
	}
	b = appendHeader(b, name, int64(m.H), int64(m.W))
	return pipeline.AppendFloats(b, m.Data), nil
}

// wireBufs recycles the whole-message buffers of the writers, which
// concurrent coordinator rounds and worker handlers share.
var wireBufs = sync.Pool{New: func() any { return new([]byte) }}

// WriteSolveRequest serialises the request. The message is encoded
// whole and handed to w in one Write, so nothing is written on error.
func WriteSolveRequest(w io.Writer, req *SolveRequest) error {
	bp := wireBufs.Get().(*[]byte)
	defer wireBufs.Put(bp)
	b, err := appendSolveRequest((*bp)[:0], req)
	*bp = b
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// requestSizeHint estimates the encoded size of req from its payload
// bytes, allowing each header line a generous width: the coordinator
// sizes its request buffer with it once.
func requestSizeHint(req *SolveRequest, payloadBytes int64) int {
	n := 256 + len(req.Session) + len(req.Solver) + int(payloadBytes)
	for i := range req.Tiles {
		n += 192
		if p := req.Tiles[i].Patch; p != nil {
			n += 24 * len(p.Runs)
		}
	}
	return n
}

// appendSolveRequest appends the request's encoding to b.
func appendSolveRequest(b []byte, req *SolveRequest) ([]byte, error) {
	if req == nil {
		return b, fmt.Errorf("shard: nil request")
	}
	if !ValidSession(req.Session) {
		return b, fmt.Errorf("shard: session id %q not serialisable", req.Session)
	}
	if req.N < 1 {
		return b, fmt.Errorf("shard: bad simulator grid %d", req.N)
	}
	if req.Solver != "" && !opt.Known(req.Solver) {
		return b, fmt.Errorf("shard: unknown solver %q (registered: %v)", req.Solver, opt.Names())
	}
	if len(req.Tiles) == 0 || len(req.Tiles) > MaxWireTiles {
		return b, fmt.Errorf("shard: %d tiles out of [1, %d]", len(req.Tiles), MaxWireTiles)
	}
	solver := req.Solver
	if solver == "" {
		solver = opt.DefaultSolver
	}
	b = append(b, wireMagic+"\nrequest solve\nsession "...)
	b = append(b, req.Session...)
	b = appendHeader(b, "\nn", int64(req.N))
	b = append(b, "solver "...)
	b = append(b, solver...)
	b = appendHeader(b, "\ntiles", int64(len(req.Tiles)))
	var err error
	for i := range req.Tiles {
		t := &req.Tiles[i]
		b = appendHeader(b, "tile", int64(t.Index), int64(t.Pixels))
		b = append(b, "params "...)
		b = strconv.AppendInt(b, int64(t.Iters), 10)
		b = append(b, ' ')
		b = strconv.AppendInt(b, int64(t.Stretch), 10)
		b = append(b, ' ')
		b = appendFbits(b, t.LR)
		b = append(b, ' ')
		b = appendFbits(b, t.PVWeight)
		b = append(b, '\n')
		switch {
		case t.Target != nil:
			if b, err = appendMatSection(b, "target full", t.Target); err != nil {
				return b, err
			}
		case t.TargetCached:
			b = append(b, "target cached\n"...)
		default:
			return b, fmt.Errorf("shard: tile %d has no target", t.Index)
		}
		switch {
		case t.Freeze != nil:
			if b, err = appendMatSection(b, "freeze full", t.Freeze); err != nil {
				return b, err
			}
		case t.FreezeCached:
			b = append(b, "freeze cached\n"...)
		default:
			b = append(b, "freeze none\n"...)
		}
		switch {
		case t.Init != nil:
			if b, err = appendMatSection(b, "init full", t.Init); err != nil {
				return b, err
			}
		case t.Patch != nil:
			p := t.Patch
			if err := checkSide(p.H, p.W); err != nil {
				return b, err
			}
			b = appendHeader(b, "init patch", int64(p.H), int64(p.W), int64(len(p.Runs)))
			for _, r := range p.Runs {
				b = appendHeader(b, "run", int64(r.Y), int64(r.X0), int64(len(r.Vals)))
				b = pipeline.AppendFloats(b, r.Vals)
			}
		default:
			return b, fmt.Errorf("shard: tile %d has no init", t.Index)
		}
		b = append(b, "end\n"...)
	}
	return b, nil
}

// WriteSolveResponse serialises the response, in one Write like
// WriteSolveRequest.
func WriteSolveResponse(w io.Writer, resp *SolveResponse) error {
	bp := wireBufs.Get().(*[]byte)
	defer wireBufs.Put(bp)
	b, err := appendSolveResponse((*bp)[:0], resp)
	*bp = b
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// appendSolveResponse appends the response's encoding to b.
func appendSolveResponse(b []byte, resp *SolveResponse) ([]byte, error) {
	if resp == nil {
		return b, fmt.Errorf("shard: nil response")
	}
	if len(resp.Tiles) == 0 || len(resp.Tiles) > MaxWireTiles {
		return b, fmt.Errorf("shard: %d tiles out of [1, %d]", len(resp.Tiles), MaxWireTiles)
	}
	s := &resp.Stats
	b = append(b, wireMagic+"\nresponse solve\n"...)
	b = appendHeader(b, "stats", int64(s.Jobs), int64(s.Retries),
		s.TotalBusy.Nanoseconds(), s.MaxBusy.Nanoseconds(),
		s.SimElapsed.Nanoseconds(), s.Transfer.Nanoseconds())
	b = appendHeader(b, "tiles", int64(len(resp.Tiles)))
	for _, t := range resp.Tiles {
		if t.Mask == nil {
			return b, fmt.Errorf("shard: tile %d has no mask", t.Index)
		}
		if err := checkSide(t.Mask.H, t.Mask.W); err != nil {
			return b, err
		}
		b = appendHeader(b, "tile", int64(t.Index), int64(t.Mask.H), int64(t.Mask.W))
		b = pipeline.AppendFloats(b, t.Mask.Data)
	}
	return b, nil
}

func checkSide(h, w int) error {
	if h < 1 || w < 1 || h > MaxWireSide || w > MaxWireSide {
		return fmt.Errorf("shard: mask %dx%d out of bounds (max side %d)", h, w, MaxWireSide)
	}
	return nil
}

// wireReader reads the line-oriented header with a bounded line
// length, so hostile input cannot make the reader buffer unboundedly.
// A line and its fields alias the reader's buffer: they are valid until
// the next read.
type wireReader struct {
	br *bufio.Reader
	f  [8][]byte
}

// wireReaders recycles decoders with their read buffers.
var wireReaders = sync.Pool{New: func() any { return &wireReader{br: bufio.NewReader(nil)} }}

func newWireReader(r io.Reader) *wireReader {
	wr := wireReaders.Get().(*wireReader)
	wr.br.Reset(r)
	return wr
}

// release returns the reader to the pool, dropping its source.
func (r *wireReader) release() {
	r.br.Reset(nil)
	wireReaders.Put(r)
}

// line reads one header line of at most maxWireLine bytes.
func (r *wireReader) line() ([]byte, error) {
	s, err := r.br.ReadSlice('\n')
	if err == nil {
		s = s[:len(s)-1]
	}
	if len(s) > maxWireLine || err == bufio.ErrBufferFull {
		return nil, fmt.Errorf("shard: header line too long")
	}
	if err != nil {
		return nil, fmt.Errorf("shard: truncated header: %w", err)
	}
	return s, nil
}

// fields reads a line and checks its first token. It splits at ASCII
// white space without allocating; a line with a non-ASCII byte or more
// than len(r.f) fields, which the encoder never writes, splits to
// nothing and is refused.
func (r *wireReader) fields(keyword string) ([][]byte, error) {
	s, err := r.line()
	if err != nil {
		return nil, err
	}
	f := r.split(s)
	if len(f) == 0 || string(f[0]) != keyword {
		return nil, fmt.Errorf("shard: expected %q line, got %q", keyword, s)
	}
	return f[1:], nil
}

func (r *wireReader) split(s []byte) [][]byte {
	n := 0
	for i := 0; i < len(s); {
		if asciiSpace(s[i]) {
			i++
			continue
		}
		j := i
		for j < len(s) && !asciiSpace(s[j]) {
			if s[j] >= 0x80 {
				return nil
			}
			j++
		}
		if n == len(r.f) {
			return nil
		}
		r.f[n] = s[i:j]
		n++
		i = j
	}
	return r.f[:n]
}

func asciiSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r'
}

// atoi64 parses an optionally signed decimal integer as
// strconv.ParseInt(s, 10, 64) does, without allocating; it also refuses
// math.MinInt64, which no range here admits.
func atoi64(s []byte) (int64, bool) {
	neg := false
	if len(s) > 0 && (s[0] == '+' || s[0] == '-') {
		neg = s[0] == '-'
		s = s[1:]
	}
	if len(s) == 0 {
		return 0, false
	}
	var u uint64
	for _, c := range s {
		d := uint64(c - '0')
		if d > 9 || u > (math.MaxInt64-d)/10 {
			return 0, false
		}
		u = u*10 + d
	}
	if neg {
		return -int64(u), true
	}
	return int64(u), true
}

func parseInt(s []byte, lo, hi int) (int, error) {
	v, ok := atoi64(s)
	if !ok || v < int64(lo) || v > int64(hi) {
		return 0, fmt.Errorf("shard: value %q out of [%d, %d]", s, lo, hi)
	}
	return int(v), nil
}

func (r *wireReader) magic(kind string) error {
	m, err := r.line()
	if err != nil {
		return err
	}
	if string(m) != wireMagic {
		return fmt.Errorf("shard: not a shard wire message (header %q)", m)
	}
	k, err := r.line()
	if err != nil {
		return err
	}
	if string(k) != kind {
		return fmt.Errorf("shard: expected %q message, got %q", kind, k)
	}
	return nil
}

// ReadSolveRequest parses a request written by WriteSolveRequest,
// validating every header field and bounding every allocation: mask
// payloads grow only as their bytes actually arrive, so a truncated
// or hostile stream cannot force memory proportional to its claims.
func ReadSolveRequest(rd io.Reader) (*SolveRequest, error) {
	r := newWireReader(rd)
	defer r.release()
	if err := r.magic("request solve"); err != nil {
		return nil, err
	}
	req := &SolveRequest{}
	f, err := r.fields("session")
	if err != nil {
		return nil, err
	}
	if len(f) != 1 || !ValidSession(string(f[0])) {
		return nil, fmt.Errorf("shard: bad session line")
	}
	req.Session = string(f[0])
	if f, err = r.fields("n"); err != nil {
		return nil, err
	}
	if len(f) != 1 {
		return nil, fmt.Errorf("shard: bad n line")
	}
	if req.N, err = parseInt(f[0], 1, MaxWireSide); err != nil {
		return nil, err
	}
	if f, err = r.fields("solver"); err != nil {
		return nil, err
	}
	if len(f) != 1 {
		return nil, fmt.Errorf("shard: bad solver line")
	}
	req.Solver = string(f[0])
	if !opt.Known(req.Solver) {
		return nil, fmt.Errorf("shard: %w %q", opt.ErrUnknownSolver, req.Solver)
	}
	if f, err = r.fields("tiles"); err != nil {
		return nil, err
	}
	if len(f) != 1 {
		return nil, fmt.Errorf("shard: bad tiles line")
	}
	count, err := parseInt(f[0], 1, MaxWireTiles)
	if err != nil {
		return nil, err
	}
	req.Tiles = make([]TileWire, 0, min(count, wireTilesUpFront))
	for i := 0; i < count; i++ {
		req.Tiles = append(req.Tiles, TileWire{})
		if err := r.readTile(&req.Tiles[i]); err != nil {
			return nil, fmt.Errorf("shard: tile %d/%d: %w", i+1, count, err)
		}
	}
	if _, err := r.br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("shard: trailing data after request")
	}
	return req, nil
}

func (r *wireReader) readTile(t *TileWire) error {
	f, err := r.fields("tile")
	if err != nil {
		return err
	}
	if len(f) != 2 {
		return fmt.Errorf("shard: bad tile line")
	}
	if t.Index, err = parseInt(f[0], 0, MaxWireTiles*MaxWireTiles); err != nil {
		return err
	}
	if t.Pixels, err = parseInt(f[1], 0, MaxWireSide*MaxWireSide); err != nil {
		return err
	}
	if f, err = r.fields("params"); err != nil {
		return err
	}
	if len(f) != 4 {
		return fmt.Errorf("shard: bad params line")
	}
	if t.Iters, err = parseInt(f[0], 0, maxWireIters); err != nil {
		return err
	}
	if t.Stretch, err = parseInt(f[1], 1, MaxWireSide); err != nil {
		return err
	}
	if t.LR, err = parseFbits(f[2]); err != nil {
		return err
	}
	if t.PVWeight, err = parseFbits(f[3]); err != nil {
		return err
	}

	// target: full h w | cached
	if f, err = r.fields("target"); err != nil {
		return err
	}
	switch {
	case len(f) == 3 && string(f[0]) == "full":
		if t.Target, err = r.readMat(f[1], f[2]); err != nil {
			return err
		}
	case len(f) == 1 && string(f[0]) == "cached":
		t.TargetCached = true
	default:
		return fmt.Errorf("shard: bad target line")
	}

	// freeze: full h w | cached | none
	if f, err = r.fields("freeze"); err != nil {
		return err
	}
	switch {
	case len(f) == 3 && string(f[0]) == "full":
		if t.Freeze, err = r.readMat(f[1], f[2]); err != nil {
			return err
		}
	case len(f) == 1 && string(f[0]) == "cached":
		t.FreezeCached = true
	case len(f) == 1 && string(f[0]) == "none":
	default:
		return fmt.Errorf("shard: bad freeze line")
	}

	// init: full h w | patch h w nruns
	if f, err = r.fields("init"); err != nil {
		return err
	}
	switch {
	case len(f) == 3 && string(f[0]) == "full":
		if t.Init, err = r.readMat(f[1], f[2]); err != nil {
			return err
		}
	case len(f) == 4 && string(f[0]) == "patch":
		if t.Patch, err = r.readPatch(f[1], f[2], f[3]); err != nil {
			return err
		}
	default:
		return fmt.Errorf("shard: bad init line")
	}
	_, err = r.fields("end")
	return err
}

// readPatch reads a patch's runs, whose values decode into one backing
// slice.
func (r *wireReader) readPatch(hs, ws, ns []byte) (*Patch, error) {
	h, err := parseInt(hs, 1, MaxWireSide)
	if err != nil {
		return nil, err
	}
	w, err := parseInt(ws, 1, MaxWireSide)
	if err != nil {
		return nil, err
	}
	nruns, err := parseInt(ns, 0, h*w)
	if err != nil {
		return nil, err
	}
	// The run slots are reserved up front up to a bound, so a hostile run
	// count costs at most that before its runs fail to arrive.
	p := &Patch{H: h, W: w, Runs: make([]Run, 0, min(nruns, wireRunsUpFront))}
	var vals []float64
	for j := 0; j < nruns; j++ {
		f, err := r.fields("run")
		if err != nil {
			return nil, err
		}
		if len(f) != 3 {
			return nil, fmt.Errorf("shard: bad run line")
		}
		y, err := parseInt(f[0], 0, h-1)
		if err != nil {
			return nil, err
		}
		x0, err := parseInt(f[1], 0, w-1)
		if err != nil {
			return nil, err
		}
		n, err := parseInt(f[2], 1, w-x0)
		if err != nil {
			return nil, err
		}
		// Runs may overlap, but together they never carry more values
		// than the patch has pixels, so the backing grows by doubling.
		if len(vals)+n > h*w {
			return nil, fmt.Errorf("shard: patch runs exceed its area")
		}
		if vals, err = pipeline.ReadFloats(r.br, vals, n, h*w); err != nil {
			return nil, fmt.Errorf("shard: truncated run payload: %w", err)
		}
		// Vals holds the run's length for now; the backing may still move.
		p.Runs = append(p.Runs, Run{Y: y, X0: x0, Vals: vals[len(vals)-n:]})
	}
	off := 0
	for i := range p.Runs {
		n := len(p.Runs[i].Vals)
		p.Runs[i].Vals = vals[off : off+n : off+n]
		off += n
	}
	return p, nil
}

func (r *wireReader) readMat(hs, ws []byte) (*grid.Mat, error) {
	h, err := parseInt(hs, 1, MaxWireSide)
	if err != nil {
		return nil, err
	}
	w, err := parseInt(ws, 1, MaxWireSide)
	if err != nil {
		return nil, err
	}
	m, err := pipeline.ReadMatData(r.br, h, w)
	if err != nil {
		return nil, fmt.Errorf("shard: truncated mask payload (%dx%d): %w", h, w, err)
	}
	return m, nil
}

// ReadSolveResponse parses a response written by WriteSolveResponse,
// with the same hardening as ReadSolveRequest.
func ReadSolveResponse(rd io.Reader) (*SolveResponse, error) {
	r := newWireReader(rd)
	defer r.release()
	if err := r.magic("response solve"); err != nil {
		return nil, err
	}
	resp := &SolveResponse{}
	f, err := r.fields("stats")
	if err != nil {
		return nil, err
	}
	if len(f) != 6 {
		return nil, fmt.Errorf("shard: bad stats line")
	}
	var ns [6]int64
	for i, s := range f {
		v, ok := atoi64(s)
		if !ok || v < 0 {
			return nil, fmt.Errorf("shard: bad stats value %q", s)
		}
		ns[i] = v
	}
	if ns[0] > MaxWireTiles*int64(maxStatsJobsPerTile) {
		return nil, fmt.Errorf("shard: stats jobs %d out of bounds", ns[0])
	}
	resp.Stats = device.Stats{
		Jobs:       int(ns[0]),
		Retries:    int(ns[1]),
		TotalBusy:  time.Duration(ns[2]),
		MaxBusy:    time.Duration(ns[3]),
		SimElapsed: time.Duration(ns[4]),
		Transfer:   time.Duration(ns[5]),
	}
	if f, err = r.fields("tiles"); err != nil {
		return nil, err
	}
	if len(f) != 1 {
		return nil, fmt.Errorf("shard: bad tiles line")
	}
	count, err := parseInt(f[0], 1, MaxWireTiles)
	if err != nil {
		return nil, err
	}
	resp.Tiles = make([]TileResult, 0, min(count, wireTilesUpFront))
	for i := 0; i < count; i++ {
		f, err := r.fields("tile")
		if err != nil {
			return nil, err
		}
		if len(f) != 3 {
			return nil, fmt.Errorf("shard: bad tile line")
		}
		idx, err := parseInt(f[0], 0, MaxWireTiles*MaxWireTiles)
		if err != nil {
			return nil, err
		}
		m, err := r.readMat(f[1], f[2])
		if err != nil {
			return nil, err
		}
		resp.Tiles = append(resp.Tiles, TileResult{Index: idx, Mask: m})
	}
	if _, err := r.br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("shard: trailing data after response")
	}
	return resp, nil
}

// wireRunsUpFront caps the run slots a patch decoder reserves before
// its runs arrive: more than the overlap frame of a 256² tile holds.
const wireRunsUpFront = 1024

// wireTilesUpFront caps the tile slots a decoder reserves before their
// bytes arrive; a longer message grows the slice as it is read.
const wireTilesUpFront = 64

// maxStatsJobsPerTile bounds the plausible jobs count in a stats
// line (attempt fan-out per tile is small); it exists only to reject
// absurd hostile values.
const maxStatsJobsPerTile = 64
