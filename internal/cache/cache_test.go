package cache

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mgsilt/internal/grid"
)

func randMat(rng *rand.Rand, h, w int) *grid.Mat {
	m := grid.NewMat(h, w)
	for i := range m.Data {
		m.Data[i] = rng.Float64()
	}
	return m
}

func testInput(rng *rand.Rand) KeyInput {
	return KeyInput{
		Optics: "litho:test", Solver: "pixel-ilt:test",
		Iters: 10, Stretch: 2, LR: 0.9, PVWeight: 0.2,
		Target: randMat(rng, 16, 16), Init: randMat(rng, 16, 16),
	}
}

func mustKey(t *testing.T, in KeyInput) Key {
	t.Helper()
	k, err := in.Key()
	if err != nil {
		t.Fatalf("Key: %v", err)
	}
	return k
}

// Keys hash tile-local content only, so the same cell pattern cropped
// from different placements in a layout must produce the same key —
// the property that makes repeated-cell layouts cacheable.
func TestKeyTranslationInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		layoutA := randMat(rng, 64, 64)
		pattern := randMat(rng, 16, 16)
		layoutB := layoutA.Clone()
		// Paste the same pattern at two different placements.
		yA, xA := rng.Intn(48), rng.Intn(48)
		yB, xB := rng.Intn(48), rng.Intn(48)
		layoutA.Paste(pattern, yA, xA)
		layoutB.Paste(pattern, yB, xB)

		in := testInput(rng)
		in.Target = layoutA.Crop(yA, xA, 16, 16)
		in.Init = pattern.Clone()
		kA := mustKey(t, in)
		in.Target = layoutB.Crop(yB, xB, 16, 16)
		kB := mustKey(t, in)
		if kA != kB {
			t.Fatalf("trial %d: same tile content at (%d,%d) and (%d,%d) produced different keys", trial, yA, xA, yB, xB)
		}
	}
}

// Any change to any solve input must change the key.
func TestKeyConfigSensitivity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	base := testInput(rng)
	base.Freeze = randMat(rng, 16, 16)
	k0 := mustKey(t, base)

	mutations := map[string]func(*KeyInput){
		"optics":   func(in *KeyInput) { in.Optics = "litho:other" },
		"solver":   func(in *KeyInput) { in.Solver = "pixel-ilt:other" },
		"iters":    func(in *KeyInput) { in.Iters++ },
		"stretch":  func(in *KeyInput) { in.Stretch++ },
		"lr":       func(in *KeyInput) { in.LR *= 1.5 },
		"pv":       func(in *KeyInput) { in.PVWeight += 0.1 },
		"target":   func(in *KeyInput) { in.Target = in.Target.Clone(); in.Target.Data[0] += 1e-9 },
		"init":     func(in *KeyInput) { in.Init = in.Init.Clone(); in.Init.Data[7] += 1e-9 },
		"freeze":   func(in *KeyInput) { in.Freeze = in.Freeze.Clone(); in.Freeze.Data[3] = 1 - in.Freeze.Data[3] },
		"nofreeze": func(in *KeyInput) { in.Freeze = nil },
	}
	for name, mutate := range mutations {
		in := base
		mutate(&in)
		if mustKey(t, in) == k0 {
			t.Errorf("mutating %s did not change the key", name)
		}
	}

	// And recomputing the unmutated input must reproduce the key.
	if mustKey(t, base) != k0 {
		t.Fatalf("key is not deterministic")
	}
}

// String framing must be unambiguous: moving a byte across the
// optics/solver boundary must change the key.
func TestKeyFramingUnambiguous(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := testInput(rng)
	a.Optics, a.Solver = "ab", "c"
	b := a
	b.Optics, b.Solver = "a", "bc"
	if mustKey(t, a) == mustKey(t, b) {
		t.Fatalf("string framing is ambiguous across field boundaries")
	}
}

func TestKeyValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	cases := map[string]func(*KeyInput){
		"no optics":      func(in *KeyInput) { in.Optics = "" },
		"no solver":      func(in *KeyInput) { in.Solver = "" },
		"nil target":     func(in *KeyInput) { in.Target = nil },
		"nil init":       func(in *KeyInput) { in.Init = nil },
		"shape mismatch": func(in *KeyInput) { in.Init = randMat(rng, 8, 8) },
		"freeze shape":   func(in *KeyInput) { in.Freeze = randMat(rng, 8, 8) },
		"neg iters":      func(in *KeyInput) { in.Iters = -1 },
		"zero stretch":   func(in *KeyInput) { in.Stretch = 0 },
		"nan lr":         func(in *KeyInput) { in.LR = nan() },
		"inf pv":         func(in *KeyInput) { in.PVWeight = inf() },
	}
	for name, mutate := range cases {
		in := testInput(rng)
		mutate(&in)
		if _, err := in.Key(); err == nil {
			t.Errorf("%s: want error, got none", name)
		}
	}
}

func nan() float64 { z := 0.0; return z / z }
func inf() float64 { z := 0.0; return 1 / z }

func TestGetPutCloneSemantics(t *testing.T) {
	c, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	k := mustKey(t, testInput(rng))
	m := randMat(rng, 16, 16)
	want := m.Clone()

	c.Put(k, m)
	m.Fill(-1) // caller mutates after Put: cache must be unaffected

	got, ok := c.Get(k)
	if !ok || !got.Equal(want) {
		t.Fatalf("Get returned wrong payload after caller mutation")
	}
	got.Fill(-2) // caller mutates the hit: cache must be unaffected
	got2, ok := c.Get(k)
	if !ok || !got2.Equal(want) {
		t.Fatalf("Get returned mutated payload")
	}

	st := c.Stats()
	if st.Hits != 2 || st.Misses != 0 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 2 hits, 1 entry", st)
	}
	if _, ok := c.Get(Key{1}); ok {
		t.Fatalf("Get of absent key succeeded")
	}
	if st := c.Stats(); st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 miss", st)
	}
}

func TestLRUEviction(t *testing.T) {
	const side = 16
	entryBytes := int64(side * side * 8)
	c, err := New(Options{MaxBytes: 3 * entryBytes})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	keys := make([]Key, 5)
	for i := range keys {
		in := testInput(rng)
		in.Iters = 100 + i
		keys[i] = mustKey(t, in)
		c.Put(keys[i], randMat(rng, side, side))
	}
	st := c.Stats()
	if st.Entries != 3 || st.Bytes != 3*entryBytes || st.Evictions != 2 {
		t.Fatalf("stats = %+v, want 3 entries / %d bytes / 2 evictions", st, 3*entryBytes)
	}
	// Oldest two evicted, newest three resident.
	for i, k := range keys {
		_, ok := c.Get(k)
		if want := i >= 2; ok != want {
			t.Errorf("key %d resident = %v, want %v", i, ok, want)
		}
	}
	// An entry exceeding the whole budget must not be kept.
	big := mustKey(t, testInput(rng))
	c.Put(big, randMat(rng, 64, 64))
	if _, ok := c.Get(big); ok {
		t.Fatalf("oversized entry stayed resident")
	}
}

func TestDoSingleflight(t *testing.T) {
	c, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	k := mustKey(t, testInput(rng))
	want := randMat(rng, 16, 16)

	var solves atomic.Int64
	release := make(chan struct{})
	solve := func() (*grid.Mat, error) {
		solves.Add(1)
		<-release
		return want, nil
	}

	const callers = 8
	var wg sync.WaitGroup
	results := make([]*grid.Mat, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m, err := c.Do(k, solve)
			if err != nil {
				t.Errorf("Do: %v", err)
			}
			results[i] = m
		}(i)
	}
	// Let followers pile up behind the leader, then release it.
	for c.Stats().Entries == 0 && solves.Load() == 0 {
	}
	close(release)
	wg.Wait()

	if n := solves.Load(); n != 1 {
		t.Fatalf("solve ran %d times, want 1", n)
	}
	for i, m := range results {
		if !m.Equal(want) {
			t.Fatalf("caller %d got wrong result", i)
		}
	}
	if st := c.Stats(); st.Merged != callers-1 {
		t.Fatalf("merged = %d, want %d", st.Merged, callers-1)
	}
}

// A failed leader must not fail its followers: each follower retries
// as a potential leader (its own job context may still be live when
// the leader's was cancelled).
func TestDoLeaderFailureRetry(t *testing.T) {
	c, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	k := mustKey(t, testInput(rng))
	want := randMat(rng, 16, 16)

	var solves atomic.Int64
	boom := errors.New("cancelled")
	solve := func() (*grid.Mat, error) {
		if solves.Add(1) == 1 {
			return nil, boom
		}
		return want, nil
	}

	if _, err := c.Do(k, solve); !errors.Is(err, boom) {
		t.Fatalf("leader error = %v, want %v", err, boom)
	}
	m, err := c.Do(k, solve)
	if err != nil || !m.Equal(want) {
		t.Fatalf("retry after leader failure: %v", err)
	}
}

// doRecovered runs c.Do on its own goroutine, recovering a panicking
// solve the way the device job boundary does, and fails the test if the
// call has not returned within the bound (a stranded singleflight).
func doRecovered(t *testing.T, c *Cache, k Key, solve func() (*grid.Mat, error)) (m *grid.Mat, panicked bool) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer func() { panicked = recover() != nil }()
		m, _ = c.Do(k, solve)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Do never returned: the key's in-flight entry is stranded")
	}
	return m, panicked
}

// A panicking leader must release its key: the panic reaches the caller
// unchanged and the retry of the same key solves as a fresh leader.
func TestDoLeaderPanicRetry(t *testing.T) {
	c, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	k := mustKey(t, testInput(rng))
	want := randMat(rng, 16, 16)

	if _, panicked := doRecovered(t, c, k, func() (*grid.Mat, error) { panic("injected") }); !panicked {
		t.Fatal("the leader's panic did not reach its caller")
	}
	m, panicked := doRecovered(t, c, k, func() (*grid.Mat, error) { return want, nil })
	if panicked || !m.Equal(want) {
		t.Fatal("retry after a panicking leader did not solve")
	}
}

// A follower waiting on a leader that panics sees a failed leader and
// retries as a leader itself.
func TestDoLeaderPanicWakesFollower(t *testing.T) {
	c, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	k := mustKey(t, testInput(rng))
	want := randMat(rng, 16, 16)

	started := make(chan struct{})
	release := make(chan struct{})
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		defer func() { _ = recover() }()
		_, _ = c.Do(k, func() (*grid.Mat, error) {
			close(started)
			<-release
			panic("injected")
		})
	}()
	<-started

	followerDone := make(chan *grid.Mat, 1)
	go func() {
		m, _ := c.Do(k, func() (*grid.Mat, error) { return want, nil })
		followerDone <- m
	}()
	// Give the follower time to park on the leader's flight; the test
	// holds under either interleaving, this only makes the follower path
	// the one exercised.
	time.Sleep(20 * time.Millisecond)
	close(release)

	select {
	case m := <-followerDone:
		if m == nil || !m.Equal(want) {
			t.Fatal("follower of a panicking leader did not solve")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("follower never woke: the leader's panic skipped close(done)")
	}
	<-leaderDone
}

// Claim takes the lead of a key nobody holds, and only of such a key:
// not of a cached one, nor of one another caller leads.
func TestClaim(t *testing.T) {
	c, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(14))
	cached, free := mustKey(t, testInput(rng)), mustKey(t, testInput(rng))
	c.Put(cached, randMat(rng, 16, 16))

	if c.Claim(cached) != nil {
		t.Fatal("claimed a cached key")
	}
	fl := c.Claim(free)
	if fl == nil {
		t.Fatal("could not claim a free key")
	}
	if c.Claim(free) != nil {
		t.Fatal("claimed a key that is already led")
	}
	want := randMat(rng, 16, 16)
	Lead([]*Flight{fl}, func() ([]*grid.Mat, []error) { return []*grid.Mat{want}, []error{nil} })
	if m, ok := c.Get(free); !ok || !m.Equal(want) {
		t.Fatal("a published result is not cached")
	}
	if st := c.Stats(); st.Merged != 0 {
		t.Fatalf("claims counted %d merges", st.Merged)
	}
}

// A batch leader publishes per key: a solved key is shared with its
// followers, a failed one sends them to solve it themselves.
func TestLeadPublishesEachKey(t *testing.T) {
	c, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(15))
	ok, failed := mustKey(t, testInput(rng)), mustKey(t, testInput(rng))
	want := randMat(rng, 16, 16)
	fls := []*Flight{c.Claim(ok), c.Claim(failed)}

	var solves atomic.Int64
	follow := func(k Key) chan *grid.Mat {
		ch := make(chan *grid.Mat, 1)
		go func() {
			m, _ := c.Do(k, func() (*grid.Mat, error) { solves.Add(1); return want, nil })
			ch <- m
		}()
		return ch
	}
	okCh, failedCh := follow(ok), follow(failed)
	Lead(fls, func() ([]*grid.Mat, []error) {
		return []*grid.Mat{want, nil}, []error{nil, errors.New("cancelled")}
	})
	for _, ch := range []chan *grid.Mat{okCh, failedCh} {
		if m := <-ch; !m.Equal(want) {
			t.Fatal("a follower got the wrong result")
		}
	}
	if n := solves.Load(); n != 1 {
		t.Fatalf("followers solved %d times, want 1 (the failed key only)", n)
	}
}

// A batch leader that panics releases every key it claimed, and each
// key's followers retry as leaders.
func TestLeadPanicReleasesEveryKey(t *testing.T) {
	c, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(16))
	const n = 3
	keys := make([]Key, n)
	fls := make([]*Flight, n)
	for i := range keys {
		keys[i] = mustKey(t, testInput(rng))
		fls[i] = c.Claim(keys[i])
	}
	want := randMat(rng, 16, 16)

	started := make(chan struct{})
	release := make(chan struct{})
	leaderDone := make(chan any, 1)
	go func() {
		defer func() { leaderDone <- recover() }()
		Lead(fls, func() ([]*grid.Mat, []error) {
			close(started)
			<-release
			panic("injected")
		})
	}()
	<-started

	followers := make(chan *grid.Mat, n)
	for _, k := range keys {
		go func(k Key) {
			m, _ := c.Do(k, func() (*grid.Mat, error) { return want, nil })
			followers <- m
		}(k)
	}
	// Give the followers time to park on the leader's flights; the test
	// holds under either interleaving.
	time.Sleep(20 * time.Millisecond)
	close(release)

	for i := 0; i < n; i++ {
		select {
		case m := <-followers:
			if m == nil || !m.Equal(want) {
				t.Fatal("follower of a panicking batch did not solve")
			}
		case <-time.After(10 * time.Second):
			t.Fatal("a follower never woke: the batch's panic stranded its key")
		}
	}
	if r := <-leaderDone; r == nil {
		t.Fatal("the batch's panic did not reach its caller")
	}
	if st := c.Stats(); st.Entries != n {
		t.Fatalf("%d entries after the followers solved, want %d", st.Entries, n)
	}
}

func TestDiskSpill(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(10))
	k := mustKey(t, testInput(rng))
	want := randMat(rng, 16, 16)

	c1, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	c1.Put(k, want)

	// A fresh cache over the same directory serves the entry from disk
	// and promotes it to RAM.
	c2, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	m, ok := c2.Get(k)
	if !ok || !m.Equal(want) {
		t.Fatalf("disk hit failed")
	}
	st := c2.Stats()
	if st.DiskHits != 1 || st.Hits != 0 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 disk hit promoted to RAM", st)
	}
	if _, ok := c2.Get(k); !ok {
		t.Fatalf("promoted entry missing from RAM")
	}
	if st := c2.Stats(); st.Hits != 1 {
		t.Fatalf("stats = %+v, want 1 RAM hit after promotion", st)
	}

	// Corrupt and truncated spill files must read as misses.
	rng2 := rand.New(rand.NewSource(11))
	k2 := mustKey(t, testInput(rng2))
	for name, data := range map[string][]byte{
		"garbage":   []byte("not a checkpoint"),
		"empty":     {},
		"truncated": {0x6d, 0x67, 0x73},
	} {
		path := filepath.Join(dir, k2.String()+spillExt)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := c2.Get(k2); ok {
			t.Errorf("%s spill file read as a hit", name)
		}
	}
}

// An entry spilled by a build with older tile-solve numerics must read
// as a miss, never be mixed into a layout solved by this build.
func TestOlderCodeVersionNotServed(t *testing.T) {
	for _, version := range []string{"mgsilt-tile-solve-v1", "mgsilt-tile-solve-v3"} {
		dir := t.TempDir()
		rng := rand.New(rand.NewSource(12))
		in := testInput(rng)
		old, err := in.keyAt(version)
		if err != nil {
			t.Fatal(err)
		}
		c1, err := New(Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		c1.Put(old, randMat(rng, 16, 16))
		c2, err := New(Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := c2.Get(mustKey(t, in)); ok {
			t.Fatalf("entry keyed under %s served to the current build", version)
		}
	}
}

// Hammer the cache from many goroutines; run with -race. Exercises
// hits, misses, eviction churn and singleflight merging concurrently.
func TestConcurrentChurn(t *testing.T) {
	const side = 8
	c, err := New(Options{MaxBytes: 10 * side * side * 8})
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]Key, 30)
	payloads := make([]*grid.Mat, len(keys))
	seedRng := rand.New(rand.NewSource(12))
	for i := range keys {
		in := testInput(seedRng)
		in.Target = randMat(seedRng, side, side)
		in.Init = randMat(seedRng, side, side)
		keys[i] = mustKey(t, in)
		payloads[i] = randMat(seedRng, side, side)
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			for i := 0; i < 500; i++ {
				j := rng.Intn(len(keys))
				switch rng.Intn(3) {
				case 0:
					c.Put(keys[j], payloads[j])
				case 1:
					if m, ok := c.Get(keys[j]); ok && !m.Equal(payloads[j]) {
						t.Errorf("Get returned wrong payload for key %d", j)
					}
				default:
					m, err := c.Do(keys[j], func() (*grid.Mat, error) {
						return payloads[j], nil
					})
					if err != nil || !m.Equal(payloads[j]) {
						t.Errorf("Do returned wrong payload for key %d: %v", j, err)
					}
				}
			}
		}(g)
	}
	wg.Wait()

	st := c.Stats()
	if st.Bytes > 10*side*side*8 {
		t.Fatalf("budget exceeded: %d bytes resident", st.Bytes)
	}
	if st.Entries > 10 {
		t.Fatalf("entry count %d exceeds budget", st.Entries)
	}
}

// FuzzCacheKey covers the spill decoder, the parser of the untrusted
// bytes under the spill directory: a key's file may hold anything and
// must never panic the cache.
func FuzzCacheKey(f *testing.F) {
	rng := rand.New(rand.NewSource(13))
	in := KeyInput{
		Optics: "litho:seed", Solver: "pixel-ilt:seed",
		Iters: 5, Stretch: 1, LR: 1, PVWeight: 0,
		Target: randMat(rng, 4, 4), Init: randMat(rng, 4, 4),
	}
	k, err := in.Key()
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{})
	f.Add([]byte("mgsilt-checkpoint v1\n"))
	f.Add([]byte("not a checkpoint at all"))
	f.Add([]byte{0x00, 0x01, 0x02})

	f.Fuzz(func(t *testing.T, spill []byte) {
		dir := t.TempDir()
		c, err := New(Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, k.String()+spillExt), spill, 0o644); err != nil {
			t.Fatal(err)
		}
		// Arbitrary spill bytes must never panic: either a valid decode
		// (a hit) or a silent miss.
		if m, ok := c.Get(k); ok && (m.H < 1 || m.W < 1) {
			t.Fatalf("spill decode accepted a degenerate %dx%d matrix", m.H, m.W)
		}
	})
}
