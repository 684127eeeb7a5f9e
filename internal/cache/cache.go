package cache

import (
	"container/list"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"mgsilt/internal/grid"
	"mgsilt/internal/pipeline"
)

// spillFlow is the pipeline-checkpoint flow tag of spilled entries.
// Spill files reuse the versioned checkpoint encoding, so they inherit
// its magic header, dimension validation, and truncation detection.
const spillFlow = "tile-cache"

// spillExt is the extension of on-disk entries (basename = hex key).
const spillExt = ".tile"

// Options configures a Cache.
type Options struct {
	// MaxBytes is the in-memory LRU budget (payload bytes: H·W·8 per
	// entry). <= 0 selects the 256 MiB default.
	MaxBytes int64
	// Dir, when non-empty, enables the write-through disk spill layer:
	// every Put also lands in Dir (atomic tmp+rename, checkpoint
	// encoding), and RAM misses consult Dir before reporting a miss.
	// Evictions never touch the spill, so Dir retains results beyond
	// the RAM budget and across processes.
	Dir string
}

// DefaultMaxBytes is the in-memory budget used when Options.MaxBytes
// is unset.
const DefaultMaxBytes int64 = 256 << 20

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	Hits      uint64 // RAM lookups satisfied by Get
	DiskHits  uint64 // Get lookups satisfied from the spill directory
	Misses    uint64 // Get lookups satisfied by neither
	Merged    uint64 // duplicate solves avoided by Do (singleflight waits + post-miss rechecks)
	Evictions uint64 // entries dropped by the LRU budget
	Bytes     int64  // current payload bytes resident in RAM
	Entries   int    // current entry count in RAM
}

// HitRate returns the fraction of Get lookups that were satisfied from
// the cache (RAM or disk), or 0 when nothing was looked up.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.DiskHits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits+s.DiskHits) / float64(total)
}

// Sub returns the counter deltas s − base (gauges keep s's values),
// for isolating one run's activity on a shared cache.
func (s Stats) Sub(base Stats) Stats {
	return Stats{
		Hits:      s.Hits - base.Hits,
		DiskHits:  s.DiskHits - base.DiskHits,
		Misses:    s.Misses - base.Misses,
		Merged:    s.Merged - base.Merged,
		Evictions: s.Evictions - base.Evictions,
		Bytes:     s.Bytes,
		Entries:   s.Entries,
	}
}

type entry struct {
	key Key
	m   *grid.Mat
}

// Flight is one claimed key's solve in progress: followers block on
// done, then read m/err. err is never handed to followers as their
// result — they retry instead — but it signals them to do so.
type Flight struct {
	c    *Cache
	k    Key
	done chan struct{}
	m    *grid.Mat
	err  error
}

// Cache is a content-addressed LRU of tile solve results, safe for
// concurrent use. Stored and returned matrices are always clones, so
// callers may mutate what they Get and what they Put.
type Cache struct {
	maxBytes int64
	dir      string

	mu       sync.Mutex
	lru      *list.List // front = most recently used; values are *entry
	idx      map[Key]*list.Element
	inflight map[Key]*Flight

	bytes                                   int64
	hits, diskHits, misses, merged, evicted uint64
}

// New builds a cache. With Options.Dir set, the directory is created
// if missing.
func New(opts Options) (*Cache, error) {
	if opts.MaxBytes <= 0 {
		opts.MaxBytes = DefaultMaxBytes
	}
	if opts.Dir != "" {
		if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("cache: spill dir: %w", err)
		}
	}
	return &Cache{
		maxBytes: opts.MaxBytes,
		dir:      opts.Dir,
		lru:      list.New(),
		idx:      make(map[Key]*list.Element),
		inflight: make(map[Key]*Flight),
	}, nil
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits: c.hits, DiskHits: c.diskHits, Misses: c.misses,
		Merged: c.merged, Evictions: c.evicted,
		Bytes: c.bytes, Entries: c.lru.Len(),
	}
}

// Get returns a copy of the cached result for k, consulting RAM first
// and then the spill directory (promoting disk hits into RAM). The
// second return reports whether anything was found; every call counts
// as exactly one hit, disk hit, or miss.
func (c *Cache) Get(k Key) (*grid.Mat, bool) {
	c.mu.Lock()
	if el, ok := c.idx[k]; ok {
		c.lru.MoveToFront(el)
		c.hits++
		m := el.Value.(*entry).m.Clone()
		c.mu.Unlock()
		return m, true
	}
	c.mu.Unlock()

	if c.dir != "" {
		if m, err := c.readSpill(k); err == nil {
			c.mu.Lock()
			c.diskHits++
			c.insertLocked(k, m)
			c.mu.Unlock()
			return m.Clone(), true
		}
	}

	c.mu.Lock()
	c.misses++
	c.mu.Unlock()
	return nil, false
}

// Put stores a copy of m under k (RAM, plus write-through spill when
// configured). Spill write failures are swallowed: the spill is an
// optimisation layer, not a durability contract.
func (c *Cache) Put(k Key, m *grid.Mat) {
	clone := m.Clone()
	c.mu.Lock()
	c.insertLocked(k, clone)
	c.mu.Unlock()
	if c.dir != "" {
		_ = c.writeSpill(k, m)
	}
}

// Do returns the cached result for k, or computes it with solve,
// deduplicating concurrent calls: one caller per key runs solve while
// the rest wait and share its result. A failed leader never fails its
// followers — each retries (typical when the leader's job context is
// cancelled: the follower, whose own context is live, must still get
// its tile). Do does not recount the Get miss the caller typically
// just observed; solves avoided here are counted under Stats.Merged.
func (c *Cache) Do(k Key, solve func() (*grid.Mat, error)) (*grid.Mat, error) {
	for {
		if fl := c.Claim(k); fl != nil {
			ms, errs := Lead([]*Flight{fl}, func() ([]*grid.Mat, []error) {
				m, err := solve()
				return []*grid.Mat{m}, []error{err}
			})
			if errs[0] != nil {
				return nil, errs[0]
			}
			return ms[0], nil
		}
		c.mu.Lock()
		if el, ok := c.idx[k]; ok {
			c.lru.MoveToFront(el)
			c.merged++
			m := el.Value.(*entry).m.Clone()
			c.mu.Unlock()
			return m, nil
		}
		fl := c.inflight[k]
		c.mu.Unlock()
		if fl == nil {
			continue // published and evicted since Claim looked
		}
		<-fl.done
		if fl.err != nil {
			continue // leader failed; retry as a potential leader
		}
		c.mu.Lock()
		c.merged++
		c.mu.Unlock()
		return fl.m.Clone(), nil
	}
}

// Claim is the first half of Do, for a caller that solves several keys
// at once: it makes the caller the leader of k, so Do calls on k wait
// for the flight instead of solving, until Lead publishes it. It
// returns nil when k is already in RAM or led by another caller, who
// will publish it; the caller then takes the result through Do.
func (c *Cache) Claim(k Key) *Flight {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, cached := c.idx[k]; cached || c.inflight[k] != nil {
		return nil
	}
	fl := &Flight{c: c, k: k, done: make(chan struct{})}
	c.inflight[k] = fl
	return fl
}

// errLeaderPanicked is what followers see when the leader's solve did
// not return; like any leader error it only tells them to retry.
var errLeaderPanicked = errors.New("cache: leader solve panicked")

// Lead is the second half: it runs solve, which returns one outcome per
// claimed flight of fls, and publishes every outcome — a success is
// stored and shared with the flight's followers, a failure sends them
// to retry as leaders. Publication is deferred, so a panicking solve (an
// injected fault the device job boundary recovers and retries) still
// releases every key before the panic continues up the stack.
func Lead(fls []*Flight, solve func() ([]*grid.Mat, []error)) ([]*grid.Mat, []error) {
	ms, errs := make([]*grid.Mat, len(fls)), make([]error, len(fls))
	for i := range errs {
		errs[i] = errLeaderPanicked
	}
	defer func() {
		for i, fl := range fls {
			fl.publish(ms[i], errs[i])
		}
	}()
	ms, errs = solve()
	return ms, errs
}

// publish retires the in-flight entry, stores a successful result,
// wakes the followers and writes the spill.
func (fl *Flight) publish(m *grid.Mat, err error) {
	c := fl.c
	fl.m, fl.err = m, err
	c.mu.Lock()
	delete(c.inflight, fl.k)
	if err == nil {
		c.insertLocked(fl.k, m.Clone())
	}
	c.mu.Unlock()
	close(fl.done)
	if err == nil && c.dir != "" {
		_ = c.writeSpill(fl.k, m)
	}
}

// insertLocked stores m (ownership transferred) under k and enforces
// the byte budget. An entry larger than the whole budget is not kept.
func (c *Cache) insertLocked(k Key, m *grid.Mat) {
	if el, ok := c.idx[k]; ok {
		old := el.Value.(*entry)
		c.bytes += matBytes(m) - matBytes(old.m)
		old.m = m
		c.lru.MoveToFront(el)
	} else {
		c.idx[k] = c.lru.PushFront(&entry{key: k, m: m})
		c.bytes += matBytes(m)
	}
	for c.bytes > c.maxBytes && c.lru.Len() > 0 {
		el := c.lru.Back()
		e := el.Value.(*entry)
		c.lru.Remove(el)
		delete(c.idx, e.key)
		c.bytes -= matBytes(e.m)
		c.evicted++
	}
}

func matBytes(m *grid.Mat) int64 { return int64(len(m.Data)) * 8 }

func (c *Cache) spillPath(k Key) string {
	return filepath.Join(c.dir, k.String()+spillExt)
}

// writeSpill persists an entry via the versioned checkpoint encoding,
// atomically, so concurrent writers and killed processes can never
// leave a torn file under the final name.
func (c *Cache) writeSpill(k Key, m *grid.Mat) error {
	return pipeline.WriteCheckpointFile(c.spillPath(k), &pipeline.Checkpoint{Flow: spillFlow, Stage: 1, Total: 1, Mask: m})
}

// readSpill loads an entry from the spill directory. Any defect —
// missing file, foreign flow tag, truncation — reads as an error and
// is treated as a miss by the caller.
func (c *Cache) readSpill(k Key) (*grid.Mat, error) {
	ck, err := pipeline.ReadCheckpointFile(c.spillPath(k))
	if err != nil {
		return nil, err
	}
	if ck.Flow != spillFlow {
		return nil, fmt.Errorf("cache: spill file has flow %q, want %q", ck.Flow, spillFlow)
	}
	return ck.Mask, nil
}
