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
	"strings"
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

// Run is one contiguous horizontal segment of changed values.
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
// base) — the caller then sends the full mask.
func DiffPatch(base, next *grid.Mat) *Patch {
	if base == nil || next == nil || !base.SameShape(next) {
		return nil
	}
	p := &Patch{H: next.H, W: next.W}
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
			p.Runs = append(p.Runs, Run{Y: y, X0: x0, Vals: append([]float64(nil), rn[x0:x]...)})
		}
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

// fbits renders a float64's exact IEEE-754 bits for the header, so
// solve parameters survive the text round trip bit-identically.
func fbits(v float64) string {
	return fmt.Sprintf("%016x", math.Float64bits(v))
}

func parseFbits(s string) (float64, error) {
	if len(s) != 16 {
		return 0, fmt.Errorf("shard: bad float bits %q", s)
	}
	u, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("shard: bad float bits %q", s)
	}
	return math.Float64frombits(u), nil
}

// WriteSolveRequest serialises the request.
func WriteSolveRequest(w io.Writer, req *SolveRequest) error {
	if req == nil {
		return fmt.Errorf("shard: nil request")
	}
	if !ValidSession(req.Session) {
		return fmt.Errorf("shard: session id %q not serialisable", req.Session)
	}
	if req.N < 1 {
		return fmt.Errorf("shard: bad simulator grid %d", req.N)
	}
	if req.Solver != "" && !opt.Known(req.Solver) {
		return fmt.Errorf("shard: unknown solver %q (registered: %v)", req.Solver, opt.Names())
	}
	if len(req.Tiles) == 0 || len(req.Tiles) > MaxWireTiles {
		return fmt.Errorf("shard: %d tiles out of [1, %d]", len(req.Tiles), MaxWireTiles)
	}
	solver := req.Solver
	if solver == "" {
		solver = opt.DefaultSolver
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%s\nrequest solve\nsession %s\nn %d\nsolver %s\ntiles %d\n",
		wireMagic, req.Session, req.N, solver, len(req.Tiles))
	for i := range req.Tiles {
		t := &req.Tiles[i]
		fmt.Fprintf(bw, "tile %d %d\nparams %d %d %s %s\n",
			t.Index, t.Pixels, t.Iters, t.Stretch, fbits(t.LR), fbits(t.PVWeight))
		switch {
		case t.Target != nil:
			if err := writeMatSection(bw, "target", t.Target); err != nil {
				return err
			}
		case t.TargetCached:
			fmt.Fprintf(bw, "target cached\n")
		default:
			return fmt.Errorf("shard: tile %d has no target", t.Index)
		}
		switch {
		case t.Freeze != nil:
			if err := writeMatSection(bw, "freeze", t.Freeze); err != nil {
				return err
			}
		case t.FreezeCached:
			fmt.Fprintf(bw, "freeze cached\n")
		default:
			fmt.Fprintf(bw, "freeze none\n")
		}
		switch {
		case t.Init != nil:
			if err := writeMatSection(bw, "init", t.Init); err != nil {
				return err
			}
		case t.Patch != nil:
			p := t.Patch
			if err := checkSide(p.H, p.W); err != nil {
				return err
			}
			fmt.Fprintf(bw, "init patch %d %d %d\n", p.H, p.W, len(p.Runs))
			for _, r := range p.Runs {
				fmt.Fprintf(bw, "run %d %d %d\n", r.Y, r.X0, len(r.Vals))
				if err := pipeline.WriteMatData(bw, &grid.Mat{H: 1, W: len(r.Vals), Data: r.Vals}); err != nil {
					return err
				}
			}
		default:
			return fmt.Errorf("shard: tile %d has no init", t.Index)
		}
		fmt.Fprintf(bw, "end\n")
	}
	return bw.Flush()
}

// WriteSolveResponse serialises the response.
func WriteSolveResponse(w io.Writer, resp *SolveResponse) error {
	if resp == nil {
		return fmt.Errorf("shard: nil response")
	}
	if len(resp.Tiles) == 0 || len(resp.Tiles) > MaxWireTiles {
		return fmt.Errorf("shard: %d tiles out of [1, %d]", len(resp.Tiles), MaxWireTiles)
	}
	bw := bufio.NewWriter(w)
	s := &resp.Stats
	fmt.Fprintf(bw, "%s\nresponse solve\nstats %d %d %d %d %d %d\ntiles %d\n",
		wireMagic, s.Jobs, s.Retries,
		s.TotalBusy.Nanoseconds(), s.MaxBusy.Nanoseconds(),
		s.SimElapsed.Nanoseconds(), s.Transfer.Nanoseconds(), len(resp.Tiles))
	for _, t := range resp.Tiles {
		if t.Mask == nil {
			return fmt.Errorf("shard: tile %d has no mask", t.Index)
		}
		if err := checkSide(t.Mask.H, t.Mask.W); err != nil {
			return err
		}
		fmt.Fprintf(bw, "tile %d %d %d\n", t.Index, t.Mask.H, t.Mask.W)
		if err := pipeline.WriteMatData(bw, t.Mask); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func writeMatSection(bw *bufio.Writer, name string, m *grid.Mat) error {
	if err := checkSide(m.H, m.W); err != nil {
		return err
	}
	fmt.Fprintf(bw, "%s full %d %d\n", name, m.H, m.W)
	return pipeline.WriteMatData(bw, m)
}

func checkSide(h, w int) error {
	if h < 1 || w < 1 || h > MaxWireSide || w > MaxWireSide {
		return fmt.Errorf("shard: mask %dx%d out of bounds (max side %d)", h, w, MaxWireSide)
	}
	return nil
}

// wireReader reads the line-oriented header with a bounded line
// length, so hostile input cannot make the reader buffer unboundedly.
type wireReader struct {
	br *bufio.Reader
}

func newWireReader(r io.Reader) *wireReader {
	return &wireReader{br: bufio.NewReader(r)}
}

// line reads one header line of at most maxWireLine bytes.
func (r *wireReader) line() (string, error) {
	var b strings.Builder
	for {
		c, err := r.br.ReadByte()
		if err != nil {
			return "", fmt.Errorf("shard: truncated header: %w", err)
		}
		if c == '\n' {
			return b.String(), nil
		}
		if b.Len() >= maxWireLine {
			return "", fmt.Errorf("shard: header line too long")
		}
		b.WriteByte(c)
	}
}

// fields reads a line and checks its first token.
func (r *wireReader) fields(keyword string) ([]string, error) {
	s, err := r.line()
	if err != nil {
		return nil, err
	}
	f := strings.Fields(s)
	if len(f) == 0 || f[0] != keyword {
		return nil, fmt.Errorf("shard: expected %q line, got %q", keyword, s)
	}
	return f[1:], nil
}

func parseInt(s string, lo, hi int) (int, error) {
	v, err := strconv.Atoi(s)
	if err != nil || v < lo || v > hi {
		return 0, fmt.Errorf("shard: value %q out of [%d, %d]", s, lo, hi)
	}
	return v, nil
}

func (r *wireReader) magic(kind string) error {
	m, err := r.line()
	if err != nil {
		return err
	}
	if m != wireMagic {
		return fmt.Errorf("shard: not a shard wire message (header %q)", m)
	}
	k, err := r.line()
	if err != nil {
		return err
	}
	if k != kind {
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
	if err := r.magic("request solve"); err != nil {
		return nil, err
	}
	req := &SolveRequest{}
	f, err := r.fields("session")
	if err != nil {
		return nil, err
	}
	if len(f) != 1 || !ValidSession(f[0]) {
		return nil, fmt.Errorf("shard: bad session line")
	}
	req.Session = f[0]
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
	if !opt.Known(f[0]) {
		return nil, fmt.Errorf("shard: %w %q", opt.ErrUnknownSolver, f[0])
	}
	req.Solver = f[0]
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
	for i := 0; i < count; i++ {
		t, err := r.readTile()
		if err != nil {
			return nil, fmt.Errorf("shard: tile %d/%d: %w", i+1, count, err)
		}
		req.Tiles = append(req.Tiles, *t)
	}
	if _, err := r.br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("shard: trailing data after request")
	}
	return req, nil
}

func (r *wireReader) readTile() (*TileWire, error) {
	t := &TileWire{}
	f, err := r.fields("tile")
	if err != nil {
		return nil, err
	}
	if len(f) != 2 {
		return nil, fmt.Errorf("shard: bad tile line")
	}
	if t.Index, err = parseInt(f[0], 0, MaxWireTiles*MaxWireTiles); err != nil {
		return nil, err
	}
	if t.Pixels, err = parseInt(f[1], 0, MaxWireSide*MaxWireSide); err != nil {
		return nil, err
	}
	if f, err = r.fields("params"); err != nil {
		return nil, err
	}
	if len(f) != 4 {
		return nil, fmt.Errorf("shard: bad params line")
	}
	if t.Iters, err = parseInt(f[0], 0, maxWireIters); err != nil {
		return nil, err
	}
	if t.Stretch, err = parseInt(f[1], 1, MaxWireSide); err != nil {
		return nil, err
	}
	if t.LR, err = parseFbits(f[2]); err != nil {
		return nil, err
	}
	if t.PVWeight, err = parseFbits(f[3]); err != nil {
		return nil, err
	}

	// target: full h w | cached
	if f, err = r.fields("target"); err != nil {
		return nil, err
	}
	switch {
	case len(f) == 3 && f[0] == "full":
		if t.Target, err = r.readMat(f[1], f[2]); err != nil {
			return nil, err
		}
	case len(f) == 1 && f[0] == "cached":
		t.TargetCached = true
	default:
		return nil, fmt.Errorf("shard: bad target line")
	}

	// freeze: full h w | cached | none
	if f, err = r.fields("freeze"); err != nil {
		return nil, err
	}
	switch {
	case len(f) == 3 && f[0] == "full":
		if t.Freeze, err = r.readMat(f[1], f[2]); err != nil {
			return nil, err
		}
	case len(f) == 1 && f[0] == "cached":
		t.FreezeCached = true
	case len(f) == 1 && f[0] == "none":
	default:
		return nil, fmt.Errorf("shard: bad freeze line")
	}

	// init: full h w | patch h w nruns
	if f, err = r.fields("init"); err != nil {
		return nil, err
	}
	switch {
	case len(f) == 3 && f[0] == "full":
		if t.Init, err = r.readMat(f[1], f[2]); err != nil {
			return nil, err
		}
	case len(f) == 4 && f[0] == "patch":
		h, err := parseInt(f[1], 1, MaxWireSide)
		if err != nil {
			return nil, err
		}
		w, err := parseInt(f[2], 1, MaxWireSide)
		if err != nil {
			return nil, err
		}
		nruns, err := parseInt(f[3], 0, h*w)
		if err != nil {
			return nil, err
		}
		p := &Patch{H: h, W: w}
		for j := 0; j < nruns; j++ {
			rf, err := r.fields("run")
			if err != nil {
				return nil, err
			}
			if len(rf) != 3 {
				return nil, fmt.Errorf("shard: bad run line")
			}
			y, err := parseInt(rf[0], 0, h-1)
			if err != nil {
				return nil, err
			}
			x0, err := parseInt(rf[1], 0, w-1)
			if err != nil {
				return nil, err
			}
			n, err := parseInt(rf[2], 1, w-x0)
			if err != nil {
				return nil, err
			}
			vals, err := pipeline.ReadMatData(r.br, 1, n)
			if err != nil {
				return nil, fmt.Errorf("shard: truncated run payload: %w", err)
			}
			p.Runs = append(p.Runs, Run{Y: y, X0: x0, Vals: vals.Data})
		}
		t.Patch = p
	default:
		return nil, fmt.Errorf("shard: bad init line")
	}
	if _, err = r.fields("end"); err != nil {
		return nil, err
	}
	return t, nil
}

func (r *wireReader) readMat(hs, ws string) (*grid.Mat, error) {
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
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil || v < 0 {
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
	for i := 0; i < count; i++ {
		tf, err := r.fields("tile")
		if err != nil {
			return nil, err
		}
		if len(tf) != 3 {
			return nil, fmt.Errorf("shard: bad tile line")
		}
		idx, err := parseInt(tf[0], 0, MaxWireTiles*MaxWireTiles)
		if err != nil {
			return nil, err
		}
		m, err := r.readMat(tf[1], tf[2])
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

// maxStatsJobsPerTile bounds the plausible jobs count in a stats
// line (attempt fan-out per tile is small); it exists only to reject
// absurd hostile values.
const maxStatsJobsPerTile = 64
