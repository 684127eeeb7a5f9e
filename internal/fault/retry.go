package fault

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// Retry is a capped-exponential-backoff retry policy with full jitter,
// optional per-attempt timeouts and an optional global retry budget.
// The zero value is usable and yields the defaults below; copying a
// Retry that has already been used is not supported (it carries the
// budget counter), so share it by pointer.
//
// internal/device interprets the policy fields itself (it requeues
// failed attempts onto surviving devices and charges backoff to the
// simulated timeline instead of sleeping); Do is the standalone
// combinator for callers that retry in place.
type Retry struct {
	// MaxAttempts bounds the total tries per operation (first try
	// included). 0 means DefaultMaxAttempts.
	MaxAttempts int
	// BaseDelay is the pre-jitter backoff after the first failure;
	// attempt k waits jitter(min(MaxDelay, BaseDelay·2^k)). 0 means
	// DefaultBaseDelay; negative means no delay.
	BaseDelay time.Duration
	// MaxDelay caps the exponential growth. 0 means DefaultMaxDelay.
	MaxDelay time.Duration
	// PerAttempt, when positive, bounds each attempt's wall time with
	// a child context; an attempt killed by its own deadline (while
	// the parent is still live) is classified as a transient straggler
	// and retried.
	PerAttempt time.Duration
	// Budget, when positive, caps the total number of retries granted
	// across the policy's lifetime (shared by every operation using
	// this value) — the circuit breaker for pathological fault rates.
	Budget int64
	// Retryable overrides the retry classification; nil means
	// Transient (injected transient faults only).
	Retryable func(error) bool
	// Jitter overrides the full-jitter draw (tests pin it); nil means
	// a uniform draw in [0, d).
	Jitter func(d time.Duration) time.Duration

	used atomic.Int64

	jmu sync.Mutex
	jrn *rand.Rand
}

// Policy defaults.
const (
	DefaultMaxAttempts = 4
	DefaultBaseDelay   = 1 * time.Millisecond
	DefaultMaxDelay    = 250 * time.Millisecond
)

// Attempts returns the effective per-operation attempt bound.
func (r *Retry) Attempts() int {
	if r == nil || r.MaxAttempts <= 0 {
		return DefaultMaxAttempts
	}
	return r.MaxAttempts
}

// Backoff returns the pre-jitter delay after failed attempt k
// (0-based): min(MaxDelay, BaseDelay·2^k).
func (r *Retry) Backoff(attempt int) time.Duration {
	base, maxd := DefaultBaseDelay, DefaultMaxDelay
	if r != nil {
		if r.BaseDelay != 0 {
			base = r.BaseDelay
		}
		if r.MaxDelay != 0 {
			maxd = r.MaxDelay
		}
	}
	if base <= 0 {
		return 0
	}
	d := base
	for i := 0; i < attempt && d < maxd; i++ {
		d *= 2
	}
	if d > maxd {
		d = maxd
	}
	return d
}

// Take consumes one unit of the retry budget, reporting whether the
// retry is allowed. Unlimited when Budget <= 0.
func (r *Retry) Take() bool {
	if r == nil || r.Budget <= 0 {
		return true
	}
	return r.used.Add(1) <= r.Budget
}

// retryable classifies err under the policy.
func (r *Retry) retryable(err error) bool {
	if r != nil && r.Retryable != nil {
		return r.Retryable(err)
	}
	return Transient(err)
}

// jitter draws the post-jitter delay for a pre-jitter bound d (full
// jitter: uniform in [0, d)).
func (r *Retry) jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	if r != nil && r.Jitter != nil {
		return r.Jitter(d)
	}
	r.jmu.Lock()
	if r.jrn == nil {
		r.jrn = rand.New(rand.NewSource(time.Now().UnixNano()))
	}
	j := time.Duration(r.jrn.Int63n(int64(d)))
	r.jmu.Unlock()
	return j
}

// Do runs op under the policy: it retries retryable failures with
// jittered backoff until success, a non-retryable error, attempt or
// budget exhaustion, or parent-context cancellation. op receives the
// (possibly per-attempt-bounded) context and the 0-based attempt
// number. The returned error is the last attempt's, annotated with the
// attempt count when more than one was made.
func (r *Retry) Do(ctx context.Context, op func(ctx context.Context, attempt int) error) error {
	attempts := r.Attempts()
	for attempt := 0; ; attempt++ {
		actx, cancel := ctx, context.CancelFunc(func() {})
		if r != nil && r.PerAttempt > 0 {
			actx, cancel = context.WithTimeout(ctx, r.PerAttempt)
		}
		err := op(actx, attempt)
		straggler := actx.Err() != nil && ctx.Err() == nil &&
			(errors.Is(err, context.DeadlineExceeded) || errors.Is(err, actx.Err()))
		cancel()
		if err == nil {
			return nil
		}
		if ctx.Err() != nil {
			return err
		}
		if !straggler && !r.retryable(err) {
			return err
		}
		if attempt+1 >= attempts {
			return fmt.Errorf("fault: %d attempts exhausted: %w", attempts, err)
		}
		if !r.Take() {
			return fmt.Errorf("fault: retry budget exhausted after attempt %d: %w", attempt+1, err)
		}
		if d := r.jitter(r.Backoff(attempt)); d > 0 {
			t := time.NewTimer(d)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return err
			}
		}
	}
}
