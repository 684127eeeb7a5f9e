// Package parallel provides the process-wide bounded worker pool that
// every CPU hot path of the repository draws from: the per-kernel
// Hopkins convolution loops and element-wise sweeps of internal/litho,
// the row/column passes of internal/fft, the per-pixel sweeps of the
// descent loop in internal/opt, the flow side between device rounds
// (window crops, lifts, cache keys and assembly in internal/core and
// internal/tile, the filters of internal/filter), and — via
// internal/device — the concurrent tile solves of internal/core.
//
// Design. A pool of width W owns W-1 resident helper goroutines. A call
// to Do or DoChunks always runs work on the calling goroutine; it
// claims whichever helpers are free *without blocking* (one
// compare-and-swap each), hands each the section through the helper's
// atomic task slot, works through the section's items itself and then
// joins the helpers that picked the section up. A helper that has not
// taken the section by the time the caller runs out of items is
// revoked — the caller never waits on work nobody has started.
//
// Shares. The items of a section are dealt out in contiguous shares, one
// for the caller and one for each helper, so that consecutive sections
// over the same data keep every core on the part it has in cache. A
// share is handed out a piece at a time, and a participant that finishes
// its own takes pieces off the far end of the others': a section costs
// what its cores can do between them, not what the slower one needs for
// its half. On a shared host, where a vCPU loses a third of its speed
// for seconds at a time, that is the difference between a steady and an
// unsteady second core (see shares).
//
// Spin, then park. A helper polls its slot, yielding with
// runtime.Gosched between polls so that any runnable goroutine takes
// the P at once, for spinBudget after its last task; a fork then costs
// a cache-line hand-off (about a microsecond), not the wake of an idle
// core (about a hundred). Past the budget it parks on a channel and an
// idle process burns no CPU; the next section to claim it pays the
// wake once.
//
// Properties, by construction:
//
//   - Bounded concurrency. The helpers are the only goroutines the
//     pool ever runs work on besides the callers, so stacking
//     parallelism levels (tile-level solves × kernel-level
//     convolutions × FFT row passes) cannot oversubscribe the host:
//     inner levels find every helper claimed and degrade to serial
//     execution on their caller.
//   - The width counts top-level goroutines too. A long-running
//     goroutine that computes beside others — a device dispatcher
//     running a tile solve — brackets the work with Enter and Leave;
//     every such goroutine beyond the first takes one helper out of
//     the pool for as long as it runs, so callers + helpers at work
//     never exceed Workers(), and the moment a stage is down to its
//     last tile that solve gets the helpers back.
//   - Starvation/deadlock freedom. No call waits for a helper to
//     become free or to start, only for items a helper is already
//     running, so nested Do calls cannot deadlock no matter how deeply
//     the levels recurse or how small the pool is.
//   - No garbage. Section descriptors are pooled; a fan-out whose work
//     function is bound ahead of time allocates nothing.
//
// Determinism is the caller's contract: work functions must write only
// to their own index/chunk. Both entry points guarantee nothing about
// execution order, so an order-sensitive reduction must keep its order
// inside one work item (litho sums each pixel's kernel terms in kernel
// order within the row that owns it) or run on the caller after the
// parallel section.
//
// A panic on a helper is carried to the caller and re-raised there
// after the join, where the device job boundary (or any other recover)
// can classify it; a panic on the caller still joins the helpers
// before it unwinds.
//
// The pool width defaults to GOMAXPROCS and can be overridden by the
// ILT_WORKERS environment variable at start-up or SetWorkers at run
// time (flags, service options).
package parallel

import (
	"math"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Grain is the least work, counted in elements (pixels, spectrum
// entries), that is worth giving one participant of a parallel section:
// the one fan-out threshold of the repository, and Limit is its one
// reader.
//
// With resident helpers a section costs well under a microsecond to
// fork and join (BenchmarkForkJoin on the 2-core reference host: an
// empty section 0.30–0.44 µs, two 10 µs halves 11.4–11.7 µs against
// 20.8–21.0 µs back to back on the caller; the goroutine-per-section
// pool this replaced took 1.2–1.4 µs and 25.1–27.3 µs, slower than
// serial), so the threshold is set by how little work still splits
// evenly, not by the hand-off. Measured on a warm LossGrad, medians of
// four to eight alternating runs with the threshold compiled in at
// 2 048, 4 096, 8 192 and 16 384 elements a section: the N=128 tile,
// whose sections run from 4 096 elements (a lone 64² transform) to
// 24 576 (six 64² fields), takes 0.88–0.93 ms over two workers at every
// one of the four, against 1.29–1.49 ms on one; the N=64 tile, whose
// sections are 4 096 elements (its resist sweep, a 64² transform) and
// 6 144 (six 32² fields), takes 0.26–0.33 ms (median 0.28) where they
// fan out — at 2 048 and 4 096 — and 0.33–0.43 ms (median 0.35) where
// they do not. Nothing measured separates 2 048 from 4 096 at two
// workers; two participants at 4 096 elements is 2 048 each.
const Grain = 2048

// Limit returns how many goroutines a section over elems elements is
// worth: one for every Grain elements, at most the pool width and at
// least one — which tells Do and DoChunks to stay on the caller, so a
// call site passes Limit(elems) as its limit and needs no serial branch
// of its own.
func Limit(elems int) int {
	return max(1, min(Workers(), elems/Grain))
}

// SweepGrain is Grain for the sweeps of the flow side between device
// rounds — window crops and restrictions, bilinear lifts, cache-key
// hashing, weighted assembly, the spatial filters — and SweepLimit is
// its one reader.
//
// The hand-off alone would put the gate at Grain: BenchmarkSweepGrain
// (dst += w·src over two participants' worth, 2-vCPU reference host,
// three runs each, µs) reads 4.3–6.0 on the caller against 4.1–4.9
// fanned out at one Grain per participant, 11.4–12.2 against 7.7–8.1 at
// two, 21–24 against 12–15 at four and 94–102 against 49–53 at sixteen.
// But these sweeps run between rounds, beside the other jobs, shard
// workers and device dispatchers of the host, and a helper that takes
// part in one then polls out its spinBudget on a core one of those
// could have used. That is what sets the gate. served-sharded (128²
// jobs on two in-process shard workers and two service workers, 2 cores)
// at SweepGrain = Grain, where a job's window sections (9 × 64² = 36 864
// elements) fan out, against 16·Grain, where they stay on the caller:
// clip_s medians 0.097 against 0.075 s and p90 0.255 against 0.100 s
// over six alternating 20 s pairs, the fanned-out side slower in four.
// At 16·Grain every flow-side section of a 512² clip (262 144 elements
// and up) still fans out: cells-512 warm_clip_s fell 17 % (ten of ten
// pairs) against the serial flow side.
const SweepGrain = 16 * Grain

// SweepLimit is Limit at SweepGrain: how many goroutines a flow-side
// sweep over elems elements is worth.
func SweepLimit(elems int) int {
	return max(1, min(Workers(), elems/SweepGrain))
}

// spinBudget is how long a helper keeps polling after its last task
// before it parks, and how long a join polls before it does. A poll is a
// load and a runtime.Gosched, about 0.17 µs; a wake from park is
// 60–150 µs on the reference host (p90 2 ms), more than most sections
// it would serve. The gaps to bridge are the serial steps between the
// sections of a tile solve and the assembly between one solve and the
// next: over one `iltrun -method ours -n 128 -iters 100` (11 277
// sections in 0.7 s) the helper parks 331 times at a budget of 100 µs,
// 29 at 500 µs, 13 at 1 ms and 10 at 2 ms, and takes part in 98.2 %,
// 99.0 %, 99.1 % and 99.7 % of the sections. The price is at most one
// budget of one spinning core after each burst of work.
const spinBudget = time.Millisecond

// pool is one generation of the worker pool; SetWorkers installs a new
// one and retires the old.
type pool struct {
	width   int
	helpers []*helper // width-1 resident goroutines
}

var (
	cur atomic.Pointer[pool]
	// entered counts the goroutines between Enter and Leave. It lives
	// outside the pool so that a resize between the two calls cannot
	// unbalance it.
	entered atomic.Int32
)

func init() {
	cur.Store(newPool(defaultWidth()))
}

// defaultWidth resolves the start-up pool width: ILT_WORKERS when set
// to a positive integer, GOMAXPROCS otherwise.
func defaultWidth() int {
	if s := os.Getenv("ILT_WORKERS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return runtime.GOMAXPROCS(0)
}

// newPool starts the helpers of an n-wide pool. They start parked.
func newPool(n int) *pool {
	n = max(n, 1)
	p := &pool{width: n, helpers: make([]*helper, n-1)}
	for i := range p.helpers {
		h := &helper{wake: newGate(), done: newGate()}
		p.helpers[i] = h
		go h.run()
	}
	return p
}

// Workers returns the configured pool width (the maximum concurrency a
// single top-level parallel section can reach, caller included).
func Workers() int { return cur.Load().width }

// SetWorkers overrides the pool width. n <= 0 restores the start-up
// default (ILT_WORKERS or GOMAXPROCS). It returns the effective width.
// Safe for concurrent use: the previous helpers finish the section they
// are in, if any, and exit; in-flight parallel sections keep the
// helpers they started with.
func SetWorkers(n int) int {
	if n <= 0 {
		n = defaultWidth()
	}
	p := newPool(n)
	for _, h := range cur.Swap(p).helpers {
		h.quit.Store(true)
		h.wake.open()
	}
	return p.width
}

// open returns the number of helpers sections may claim: one is
// withheld for every goroutine between Enter and Leave beyond the
// first.
func (p *pool) open() int {
	return max(0, min(len(p.helpers), p.width-int(entered.Load())))
}

// Enter registers the calling goroutine as one that computes for as
// long as it runs — a device dispatcher inside a tile solve — and Leave
// unregisters it. The first such goroutine is the caller every section
// already counts; each further one takes a helper out of the pool, so
// that the goroutines computing at once stay within Workers(). Enter
// never waits for a helper to be free: a helper that is mid-section
// when it is withheld finishes that section (Enter waits for that, so
// the bound holds from the moment it returns) and is not claimed again
// until a Leave hands it back.
func Enter() {
	n := int(entered.Add(1))
	p := cur.Load()
	if i := p.width - n; n > 1 && i >= 0 && i < len(p.helpers) {
		for h := p.helpers[i]; h.claimed.Load(); {
			runtime.Gosched()
		}
	}
}

// Leave undoes one Enter.
func Leave() { entered.Add(-1) }

// gate parks one goroutine until another makes a condition true. The
// side that wins the parked flag decides whether a token travels, so at
// most one is ever outstanding and open never blocks.
type gate struct {
	parked atomic.Bool
	ch     chan struct{}
}

func newGate() gate { return gate{ch: make(chan struct{}, 1)} }

// wait blocks until ready reports true. Whoever makes ready true must
// call open afterwards.
func (g *gate) wait(ready func() bool) {
	for !ready() {
		g.parked.Store(true)
		if ready() && g.parked.CompareAndSwap(true, false) {
			return
		}
		// Either nothing is ready, or an opener saw the flag first and
		// owes the token.
		<-g.ch
	}
}

// open wakes the waiter, if one is parked.
func (g *gate) open() {
	if g.parked.Load() && g.parked.CompareAndSwap(true, false) {
		g.ch <- struct{}{}
	}
}

// helper is one resident goroutine of a pool. A caller owns it from the
// claim to the end of its join; slot carries the section from the
// caller (post) to the helper (take), or back to the caller (revoke).
type helper struct {
	claimed atomic.Bool
	self    int                     // which share of the posted section is this helper's
	slot    atomic.Pointer[section] // nil, a posted section, or running
	quit    atomic.Bool             // the pool was retired
	wake    gate                    // the helper parks here
	done    gate                    // the owner's join parks here
	_       [64]byte                // helpers are written by different cores
}

// running is the slot value of a helper inside a section.
var running = new(section)

func (h *helper) run() {
	var last time.Time // zero: park at once
	for {
		if s := h.slot.Load(); s != nil && h.slot.CompareAndSwap(s, running) {
			s.help(h.self)
			h.slot.Store(nil)
			h.done.open()
			last = time.Now()
			continue
		}
		if h.quit.Load() {
			return
		}
		if time.Since(last) < spinBudget {
			runtime.Gosched()
			continue
		}
		h.wake.wait(h.due)
		last = time.Now()
	}
}

// due reports whether a parked helper has something to get up for.
func (h *helper) due() bool { return h.slot.Load() != nil || h.quit.Load() }

// idle reports whether the helper has left the section it was posted.
func (h *helper) idle() bool { return h.slot.Load() == nil }

// shares is how many hand-outs a DoChunks participant's share is cut
// into. One (the whole share at once) makes a section as slow as its
// slower core: on the shared reference host, where either vCPU loses a
// third of its speed for seconds at a time, a warm N=128 LossGrad over
// two workers then reads 0.86 ms at the median and 1.32 ms at p90 in a
// mixed minute, 1.29 and 1.42 ms in a slow one. At four the core that
// runs out first takes quarters off the far end of the other's share:
// 0.87 and 1.11 ms, 1.12 and 1.42 ms, in the same minutes, 25-call turns
// interleaved. Eight reads as four; the quarter costs 2 % when both cores
// are fast (extra calls of the chunk function). Cutting the section into
// that many parts handed out in index order, instead of shares, loses
// 10 % always: consecutive sections split the same data, and a share
// keeps each core on the half it has in cache.
const shares = 4

// span is one participant's share of a section's items: the half-open
// range [lo, hi) not yet handed out, packed into one word so that the
// owner, who takes from the front, and a participant that has run out of
// its own, who takes from the back, settle every hand-out with one
// compare-and-swap.
type span struct {
	r atomic.Uint64 // lo<<32 | hi
	_ [56]byte      // spans are written by different cores
}

func (sp *span) set(lo, hi int) { sp.r.Store(uint64(lo)<<32 | uint64(hi)) }

// take hands out up to grain items, off the back of the span or off its
// front; ok is false when none is left.
func (sp *span) take(grain int, back bool) (lo, hi int, ok bool) {
	for {
		x := sp.r.Load()
		l, h := int(x>>32), int(uint32(x))
		if l >= h {
			return 0, 0, false
		}
		if back {
			lo, hi = max(l, h-grain), h
			if sp.r.CompareAndSwap(x, uint64(l)<<32|uint64(lo)) {
				return lo, hi, true
			}
		} else {
			lo, hi = l, min(h, l+grain)
			if sp.r.CompareAndSwap(x, uint64(hi)<<32|uint64(h)) {
				return lo, hi, true
			}
		}
	}
}

// section is one Do or DoChunks call: n items shared out evenly and in
// index order between the caller and the helpers it claimed, each share
// handed out grain items at a time.
type section struct {
	fn      func(i int)      // Do: item i is index i
	chunk   func(lo, hi int) // DoChunks: items [lo, hi) are that range of [0, n)
	grain   int
	spans   []span // spans[0] is the caller's share, spans[j+1] helpers[j]'s
	helpers []*helper

	// The first panic raised on a helper, re-raised on the caller.
	panicked atomic.Bool
	panicVal any
}

var sections = sync.Pool{New: func() any { return new(section) }}

// fork returns a section holding up to want free helpers, claimed
// without blocking, or nil when there is none to claim.
func fork(want int) *section {
	if want <= 0 {
		return nil
	}
	var s *section
	p := cur.Load()
	for i := 0; i < p.open() && (s == nil || len(s.helpers) < want); i++ {
		h := p.helpers[i]
		if h.claimed.Load() || !h.claimed.CompareAndSwap(false, true) {
			continue
		}
		if i >= p.open() {
			// An Enter withheld this helper between the bound check and
			// the claim, and is waiting for the claim to clear.
			h.claimed.Store(false)
			break
		}
		if s == nil {
			s = sections.Get().(*section)
		}
		s.helpers = append(s.helpers, h)
	}
	return s
}

// run posts the section to its helpers, works through the items beside
// them, joins, recycles the section and re-raises a helper's panic.
func (s *section) run() {
	for j, h := range s.helpers {
		h.self = j + 1
		h.slot.Store(s)
		h.wake.open()
	}
	s.workAndJoin()
	v, panicked := s.panicVal, s.panicked.Load()
	clear(s.helpers)
	*s = section{helpers: s.helpers[:0], spans: s.spans[:0]}
	sections.Put(s)
	if panicked {
		panic(v)
	}
}

// share deals the n items of the section out: one span each for the
// caller and its helpers, as even as possible and in index order.
func (s *section) share(n, grain int) {
	if uint64(n) > math.MaxUint32 {
		panic("parallel: a section of more than 1<<32-1 items")
	}
	parts := len(s.helpers) + 1
	if cap(s.spans) < parts {
		s.spans = make([]span, parts)
	}
	s.spans, s.grain = s.spans[:parts], grain
	for p := range s.spans {
		s.spans[p].set(chunkBounds(n, parts, p))
	}
}

// workAndJoin is the caller's side of the section. The join is
// deferred, so a panic on the caller still leaves no helper inside the
// section when it unwinds.
func (s *section) workAndJoin() {
	defer s.join()
	s.work(0)
}

// work runs items as participant self until none is left: its own share
// front to back, then what it can take off the far end of the others' —
// the share of a helper that never turned up, or of a core that has
// fallen behind.
func (s *section) work(self int) {
	for v := range s.spans {
		sp := &s.spans[(self+v)%len(s.spans)]
		for {
			lo, hi, ok := sp.take(s.grain, v > 0)
			if !ok {
				break
			}
			if s.fn == nil {
				s.chunk(lo, hi)
				continue
			}
			for i := lo; i < hi; i++ {
				s.fn(i)
			}
		}
	}
}

// help is work on a helper goroutine, where a panic raised inside a
// fanned-out loop would crash the process from a goroutine nobody can
// recover on. It is recorded instead (the caller re-raises it), and the
// items not yet handed out are dropped.
func (s *section) help(self int) {
	defer func() {
		if r := recover(); r != nil {
			if s.panicked.CompareAndSwap(false, true) {
				s.panicVal = r
			}
			for p := range s.spans {
				s.spans[p].set(0, 0)
			}
		}
	}()
	s.work(self)
}

// join takes the section back from the helpers that never picked it up
// (the caller has run their share), waits for the others and releases
// them all.
func (s *section) join() {
	for _, h := range s.helpers {
		var start time.Time
		for !h.idle() && !h.slot.CompareAndSwap(s, nil) {
			// The helper is inside the section. If it was woken from park
			// it was readied onto this goroutine's P: yield, so that it
			// runs or migrates now.
			switch {
			case start.IsZero():
				start = time.Now()
			case time.Since(start) > spinBudget:
				h.done.wait(h.idle)
				continue
			}
			runtime.Gosched()
		}
		h.claimed.Store(false)
	}
}

// helpersWanted resolves how many helpers a section of n items capped
// at limit participants (limit <= 0 means the pool width) can use.
func helpersWanted(n, limit int) int {
	if limit <= 0 {
		limit = Workers()
	}
	return min(limit, n) - 1
}

// Do runs fn(i) for every i in [0, n), distributing indices over the
// calling goroutine plus as many pool helpers as are free, capped at
// limit-1 helpers (limit <= 0 means the pool width). Every participant
// starts on a contiguous share of the indices and, once that is done,
// takes indices one at a time off the far end of the others', so uneven
// task costs and uneven cores balance automatically; execution order is
// unspecified. Do returns when every index has been processed. fn must
// confine its writes to data owned by index i.
func Do(n, limit int, fn func(i int)) {
	s := fork(helpersWanted(n, limit))
	if s == nil {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	s.fn = fn
	s.share(n, 1)
	s.run()
}

// DoChunks splits [0, n) into one contiguous share per participating
// goroutine (caller + granted helpers, capped at limit participants;
// limit <= 0 means the pool width) and runs fn(lo, hi) on each share, a
// quarter of it at a time (see shares), so that a participant that runs
// out can take the quarters another has not reached. Chunk boundaries
// depend on how many helpers were free and on who was faster, so fn must
// be insensitive to the split — the natural fit for loops whose
// iterations are uniform (FFT row/column passes, per-pixel sweeps) and
// that want scratch allocated once per chunk rather than per index.
func DoChunks(n, limit int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	s := fork(helpersWanted(n, limit))
	if s == nil {
		fn(0, n)
		return
	}
	s.chunk = fn
	pieces := shares * (len(s.helpers) + 1)
	s.share(n, (n+pieces-1)/pieces)
	s.run()
}

// chunkBounds returns the half-open range of chunk p of parts over
// [0, n), sized as evenly as possible.
func chunkBounds(n, parts, p int) (lo, hi int) {
	base := n / parts
	rem := n % parts
	lo = p*base + min(p, rem)
	hi = lo + base
	if p < rem {
		hi++
	}
	return lo, hi
}
