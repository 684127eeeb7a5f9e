package fault

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// Retry is a capped-exponential-backoff retry policy with full jitter.
// The zero value is usable and yields the defaults below.
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
	// attempt k waits jitter(min(DefaultMaxDelay, BaseDelay·2^k)). 0
	// means DefaultBaseDelay; negative means no delay.
	BaseDelay time.Duration
	// Retryable overrides the retry classification; nil means
	// Transient (injected transient faults only).
	Retryable func(error) bool
	// Jitter overrides the full-jitter draw (tests pin it); nil means
	// a uniform draw in [0, d).
	Jitter func(d time.Duration) time.Duration

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
// (0-based): min(DefaultMaxDelay, BaseDelay·2^k).
func (r *Retry) Backoff(attempt int) time.Duration {
	base := DefaultBaseDelay
	if r != nil && r.BaseDelay != 0 {
		base = r.BaseDelay
	}
	if base <= 0 {
		return 0
	}
	d := base
	for i := 0; i < attempt && d < DefaultMaxDelay; i++ {
		d *= 2
	}
	return min(d, DefaultMaxDelay)
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
// jittered backoff until success, a non-retryable error, attempt
// exhaustion, or context cancellation. op receives ctx and the 0-based
// attempt number. The returned error is the last attempt's, annotated
// with the attempt count when the attempts ran out.
func (r *Retry) Do(ctx context.Context, op func(ctx context.Context, attempt int) error) error {
	attempts := r.Attempts()
	for attempt := 0; ; attempt++ {
		err := op(ctx, attempt)
		if err == nil {
			return nil
		}
		if ctx.Err() != nil || !r.retryable(err) {
			return err
		}
		if attempt+1 >= attempts {
			return fmt.Errorf("fault: %d attempts exhausted: %w", attempts, err)
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
