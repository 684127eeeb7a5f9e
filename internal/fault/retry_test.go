package fault

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

// transientErr builds a retryable injected error for tests.
func transientErr(unit int64) error {
	return &Error{Key: Key{Unit: unit}}
}

func noJitter(r *Retry) *Retry {
	r.Jitter = func(time.Duration) time.Duration { return 0 }
	return r
}

func TestDoSucceedsAfterTransients(t *testing.T) {
	r := noJitter(&Retry{MaxAttempts: 5})
	calls := 0
	err := r.Do(context.Background(), func(_ context.Context, attempt int) error {
		if attempt != calls {
			t.Fatalf("attempt %d on call %d", attempt, calls)
		}
		calls++
		if calls < 3 {
			return transientErr(int64(calls))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 3 {
		t.Fatalf("made %d calls, want 3", calls)
	}
}

func TestDoStopsOnNonRetryable(t *testing.T) {
	r := noJitter(&Retry{MaxAttempts: 5})
	genuine := errors.New("solver diverged")
	calls := 0
	err := r.Do(context.Background(), func(context.Context, int) error {
		calls++
		return genuine
	})
	if !errors.Is(err, genuine) || calls != 1 {
		t.Fatalf("err %v after %d calls, want 1 call of genuine error", err, calls)
	}
}

func TestDoStopsOnHardFault(t *testing.T) {
	r := noJitter(&Retry{MaxAttempts: 5})
	calls := 0
	err := r.Do(context.Background(), func(context.Context, int) error {
		calls++
		return &Error{IsHard: true}
	})
	if !Hard(err) || calls != 1 {
		t.Fatalf("err %v after %d calls, want 1 hard failure", err, calls)
	}
}

func TestDoExhaustsAttempts(t *testing.T) {
	r := noJitter(&Retry{MaxAttempts: 3})
	calls := 0
	err := r.Do(context.Background(), func(context.Context, int) error {
		calls++
		return transientErr(1)
	})
	if calls != 3 {
		t.Fatalf("made %d calls, want 3", calls)
	}
	if err == nil || !strings.Contains(err.Error(), "attempts exhausted") || !Transient(err) {
		t.Fatalf("exhaustion error %v", err)
	}
}

func TestDoHonoursParentCancellation(t *testing.T) {
	r := noJitter(&Retry{MaxAttempts: 100})
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	err := r.Do(ctx, func(context.Context, int) error {
		calls++
		if calls == 2 {
			cancel()
		}
		return transientErr(int64(calls))
	})
	if err == nil || calls > 2 {
		t.Fatalf("cancelled op ran %d calls (err %v)", calls, err)
	}
}

func TestBackoffCappedExponential(t *testing.T) {
	r := &Retry{BaseDelay: 40 * time.Millisecond}
	want := []time.Duration{40, 80, 160, 250, 250} // capped at DefaultMaxDelay
	for k, w := range want {
		if got := r.Backoff(k); got != w*time.Millisecond {
			t.Fatalf("Backoff(%d) = %v, want %v", k, got, w*time.Millisecond)
		}
	}
	if d := (&Retry{BaseDelay: -1}).Backoff(3); d != 0 {
		t.Fatalf("negative base must disable delay, got %v", d)
	}
	if d := (&Retry{}).Backoff(0); d != DefaultBaseDelay {
		t.Fatalf("zero-value base %v, want default %v", d, DefaultBaseDelay)
	}
}

func TestZeroValueDefaults(t *testing.T) {
	var r Retry
	if r.Attempts() != DefaultMaxAttempts {
		t.Fatalf("attempts %d", r.Attempts())
	}
	var nilR *Retry
	if nilR.Attempts() != DefaultMaxAttempts {
		t.Fatal("nil policy must behave as defaults")
	}
	if nilR.Backoff(2) != 4*DefaultBaseDelay {
		t.Fatalf("nil backoff %v", nilR.Backoff(2))
	}
}
