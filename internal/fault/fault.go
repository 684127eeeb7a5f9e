// Package fault is the deterministic fault-injection and resilience
// layer of the compute path. Production-scale ILT treats device
// flakiness as routine, not fatal (cf. the GPU full-chip pipelines in
// PAPERS.md); this package provides the machinery the rest of the
// repository uses to reproduce — and test — that operational posture:
//
//   - Injector: a seedable source of scheduled faults (transient
//     errors and hard device failures) consulted by internal/device at
//     its one site, device.run: every attempt of a job on a device.
//     The decision for one attempt is a pure hash of (seed, key), so a
//     chaos run is exactly reproducible from its seed regardless of
//     goroutine scheduling.
//   - Retry: a context-aware retry policy (capped exponential backoff
//     with full jitter) wrapped around per-job device dispatch by
//     internal/device and available as a standalone combinator (Do).
//
// The numeric core (litho, opt and below) never imports this package:
// a tile solve stays a pure function of its inputs.
//
// Determinism contract: an injector's At must be a pure function of
// its key. The provided Seeded injector guarantees this; custom
// injectors used by the chaos tests should too, or retry counters stop
// being reproducible.
package fault

import (
	"errors"
	"fmt"
)

// site names the one injection point, one job attempt on one device,
// in error messages and in the Seeded hash.
const site = "device.run"

// Key identifies one injection opportunity. Together with the injector
// seed it fully determines the injected fault, which is
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

// Injector decides the fault, if any, for one job attempt: At returns
// nil or an error the device layer classifies with Hard and Transient,
// as it classifies a job's own error. At must be safe for concurrent
// use and SHOULD be a pure function of its key (see the package
// determinism contract).
type Injector interface {
	At(k Key) error
}

// InjectorFunc adapts a function to the Injector interface.
type InjectorFunc func(k Key) error

// At implements Injector.
func (f InjectorFunc) At(k Key) error { return f(k) }

// Error is an injected failure, carrying its provenance so a chaos
// log line suffices to reproduce the event.
type Error struct {
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
		kind, site, e.Key.Batch, e.Key.Unit, e.Key.Attempt, e.Key.Device)
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
// is a pure hash of (seed, key), so concurrent chaos runs with the
// same seed inject exactly the same faults no matter how the scheduler
// interleaves them.
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
func (s *Seeded) At(k Key) error {
	u := unitFloat(s.seed, k)
	switch {
	case u < s.rates.Hard:
		return &Error{Key: k, IsHard: true}
	case u < s.rates.Hard+s.rates.Transient:
		return &Error{Key: k}
	}
	return nil
}

// unitFloat hashes (seed, key) into [0, 1) with a splitmix64 finaliser
// over the FNV-folded site name. The name is a constant, but dropping it
// would move every seeded schedule (TestSeededScheduleGolden) and the
// retry counts of every seeded chaos run. Key.Device is deliberately
// NOT hashed — see the Key docs: unit-to-device assignment is a
// scheduler race, and a schedule-dependent hash would break the
// determinism contract.
func unitFloat(seed int64, k Key) float64 {
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

// Panic carries an injected fault through a panic instead of an error
// return. The device job boundary recovers it with FromPanic and
// converts it into an ordinary retryable error; internal/parallel
// forwards it from helper goroutines to the caller, and the tile cache
// and the batcher release what they hold as it unwinds past them.
type Panic struct{ Err error }

// FromPanic extracts an injected fault from a recovered panic value.
func FromPanic(r any) (error, bool) {
	if p, ok := r.(Panic); ok {
		return p.Err, true
	}
	return nil, false
}
