// Package fault is the deterministic fault-injection and resilience
// layer of the compute path. Production-scale ILT treats device
// flakiness as routine, not fatal (cf. the GPU full-chip pipelines in
// PAPERS.md); this package provides the machinery the rest of the
// repository uses to reproduce — and test — that operational posture:
//
//   - Injector: a seedable source of scheduled faults (transient
//     errors and hard device failures) consulted at named Sites of
//     the compute path. The decision for one opportunity is a pure
//     hash of (seed, site, key), so a chaos run is exactly
//     reproducible from its seed regardless of goroutine scheduling.
//   - Retry: a context-aware retry policy (capped exponential backoff
//     with full jitter) wrapped around per-job device dispatch by
//     internal/device and available as a standalone combinator (Do).
//   - A process-global hook (Enable/At) for sites buried inside pure
//     compute code that cannot thread an injector value through their
//     call chain (litho.aerial). The default is disabled: At is a
//     single atomic load returning the zero Fault, so production pays
//     nothing.
//
// Determinism contract: an injector's At must be a pure function of
// (site, key). The provided Seeded injector guarantees this; custom
// injectors used by the chaos tests should too, or retry counters stop
// being reproducible.
package fault

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// Site names an injection point in the compute path.
type Site string

// The sites currently wired into the repository.
const (
	// SiteDeviceRun wraps one tile job attempt on one device.
	SiteDeviceRun Site = "device.run"
	// SiteLithoAerial wraps one aerial-image evaluation inside the
	// Hopkins convolution. The site cannot return an error (the litho
	// API is pure), so injected failures are thrown as Panic values and
	// recovered at the device job boundary.
	SiteLithoAerial Site = "litho.aerial"
)

// Key identifies one injection opportunity. Together with the site and
// the injector seed it fully determines the injected fault, which is
// what makes chaos runs reproducible: the device layer derives Batch
// from a per-cluster batch sequence number, Unit from the job index
// within the batch, and Attempt from the retry attempt.
//
// Device records the executing device for provenance (error messages,
// custom injectors that target one device), but the Seeded injector
// deliberately excludes it from the fault hash: which physical device
// pops a queued unit is a scheduler race, and folding it in would make
// seeded fault schedules — and therefore retry counts — depend on
// goroutine interleaving.
type Key struct {
	Batch   int64
	Unit    int64
	Attempt int64
	Device  int64
}

// Fault is one injected event. The zero value means "no fault".
type Fault struct {
	// Err, when non-nil, fails the operation. Use Transient/Hard to
	// classify it.
	Err error
	// Hard marks a device-fatal failure: the executing device must be
	// quarantined from the pool.
	Hard bool
}

// Injector decides the fault (if any) for one opportunity. At must be
// safe for concurrent use and SHOULD be a pure function of its
// arguments (see the package determinism contract).
type Injector interface {
	At(site Site, k Key) Fault
}

// InjectorFunc adapts a function to the Injector interface.
type InjectorFunc func(site Site, k Key) Fault

// At implements Injector.
func (f InjectorFunc) At(site Site, k Key) Fault { return f(site, k) }

// Error is an injected failure, carrying its provenance so a chaos
// log line suffices to reproduce the event.
type Error struct {
	Site   Site
	Key    Key
	IsHard bool
}

// Error implements the error interface.
func (e *Error) Error() string {
	kind := "transient"
	if e.IsHard {
		kind = "hard"
	}
	return fmt.Sprintf("fault: injected %s failure at %s (batch %d, unit %d, attempt %d, device %d)",
		kind, e.Site, e.Key.Batch, e.Key.Unit, e.Key.Attempt, e.Key.Device)
}

// Transient reports whether err is an injected transient fault — one
// the retry policy should re-attempt. Hard faults and genuine flow
// errors are not transient.
func Transient(err error) bool {
	var fe *Error
	return errors.As(err, &fe) && !fe.IsHard
}

// Hard reports whether err is an injected hard device failure — one
// that must quarantine the executing device.
func Hard(err error) bool {
	var fe *Error
	return errors.As(err, &fe) && fe.IsHard
}

// Rates configures the Seeded injector. The two probabilities
// partition the unit interval: Hard is checked first, then Transient;
// their sum must be at most 1.
type Rates struct {
	Transient float64 // probability of a retryable failure
	Hard      float64 // probability of a device-fatal failure
}

// Seeded is the deterministic injector: the fault for an opportunity
// is a pure hash of (seed, site, key), so concurrent chaos runs with
// the same seed inject exactly the same faults no matter how the
// scheduler interleaves them. One set of rates applies at every site
// it is consulted at; the device layer consults it only at
// SiteDeviceRun.
type Seeded struct {
	seed  int64
	rates Rates
}

// NewSeeded builds a seeded injector faulting at rates r. It panics on
// negative rates or rates summing past 1.
func NewSeeded(seed int64, r Rates) *Seeded {
	if r.Transient < 0 || r.Hard < 0 || r.Transient+r.Hard > 1 {
		panic(fmt.Sprintf("fault: invalid rates %+v", r))
	}
	return &Seeded{seed: seed, rates: r}
}

// At implements Injector.
func (s *Seeded) At(site Site, k Key) Fault {
	u := unitFloat(s.seed, site, k)
	switch {
	case u < s.rates.Hard:
		return Fault{Err: &Error{Site: site, Key: k, IsHard: true}, Hard: true}
	case u < s.rates.Hard+s.rates.Transient:
		return Fault{Err: &Error{Site: site, Key: k}}
	}
	return Fault{}
}

// unitFloat hashes (seed, site, key) into [0, 1) with a splitmix64
// finaliser over an FNV-folded site name. Key.Device is deliberately
// NOT hashed — see the Key docs: unit-to-device assignment is a
// scheduler race, and a schedule-dependent hash would break the
// determinism contract.
func unitFloat(seed int64, site Site, k Key) float64 {
	h := uint64(seed) ^ 0x9e3779b97f4a7c15
	for i := 0; i < len(site); i++ {
		h = (h ^ uint64(site[i])) * 1099511628211
	}
	h = mix64(h ^ uint64(k.Batch))
	h = mix64(h ^ uint64(k.Unit))
	h = mix64(h ^ uint64(k.Attempt))
	return float64(h>>11) / float64(uint64(1)<<53)
}

func mix64(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// Panic is the value thrown by injection sites that cannot return an
// error (litho.aerial). The device job boundary recovers it with
// FromPanic and converts it into an ordinary retryable error;
// internal/parallel forwards it from helper goroutines to the caller.
type Panic struct{ Err error }

// FromPanic extracts an injected fault from a recovered panic value.
func FromPanic(r any) (error, bool) {
	if p, ok := r.(Panic); ok {
		return p.Err, true
	}
	return nil, false
}

// global is the process-wide injector hook for sites that cannot
// thread an Injector through their call chain. nil = disabled.
var global atomic.Pointer[injectorBox]

type injectorBox struct{ inj Injector }

// Enable installs inj as the process-global injector consulted by At.
// Passing nil disables injection (the production default).
func Enable(inj Injector) {
	if inj == nil {
		global.Store(nil)
		return
	}
	global.Store(&injectorBox{inj: inj})
}

// Enabled reports whether a process-global injector is installed.
func Enabled() bool { return global.Load() != nil }

// At consults the process-global injector. When none is installed (the
// production default) it is a single atomic load returning the zero
// Fault — effectively free on the hot path.
func At(site Site, k Key) Fault {
	b := global.Load()
	if b == nil {
		return Fault{}
	}
	return b.inj.At(site, k)
}
