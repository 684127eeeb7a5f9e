package fault

import (
	"errors"
	"fmt"
	"testing"
)

func TestSeededIsDeterministic(t *testing.T) {
	a := NewSeeded(42, Rates{Transient: 0.3, Hard: 0.05})
	b := NewSeeded(42, Rates{Transient: 0.3, Hard: 0.05})
	for batch := int64(0); batch < 4; batch++ {
		for unit := int64(0); unit < 32; unit++ {
			for attempt := int64(0); attempt < 3; attempt++ {
				k := Key{Batch: batch, Unit: unit, Attempt: attempt, Device: unit % 2}
				fa, fb := a.At(k), b.At(k)
				if (fa == nil) != (fb == nil) || Hard(fa) != Hard(fb) {
					t.Fatalf("same seed diverged at %+v: %+v vs %+v", k, fa, fb)
				}
			}
		}
	}
}

// TestSeededIgnoresDevice pins the schedule-independence contract:
// which physical device executes a unit is a scheduler race, so the
// seeded fault decision must not vary with Key.Device.
func TestSeededIgnoresDevice(t *testing.T) {
	inj := NewSeeded(42, Rates{Transient: 0.3, Hard: 0.05})
	for unit := int64(0); unit < 64; unit++ {
		base := inj.At(Key{Unit: unit})
		for dev := int64(1); dev < 8; dev++ {
			f := inj.At(Key{Unit: unit, Device: dev})
			if (f == nil) != (base == nil) || Hard(f) != Hard(base) {
				t.Fatalf("fault decision for unit %d changed with device %d: %+v vs %+v", unit, dev, f, base)
			}
		}
	}
}

// TestSeededScheduleGolden pins the fault class of every key with
// batch 0–1, unit 0–7 and attempt 0–1 for seed 42
// ('.' none, 't' transient, 'H' hard; '|' separates the batches), so
// any change to the hash or the rate partition shows as a diff here
// rather than as moved retry counts in a chaos run.
func TestSeededScheduleGolden(t *testing.T) {
	const want = "...t.t...t....H.|t..t....t..t...t"
	inj := NewSeeded(42, Rates{Transient: 0.3, Hard: 0.05})
	var got []byte
	for batch := int64(0); batch < 2; batch++ {
		if batch > 0 {
			got = append(got, '|')
		}
		for unit := int64(0); unit < 8; unit++ {
			for attempt := int64(0); attempt < 2; attempt++ {
				f := inj.At(Key{Batch: batch, Unit: unit, Attempt: attempt})
				switch {
				case Hard(f):
					got = append(got, 'H')
				case f != nil:
					got = append(got, 't')
				default:
					got = append(got, '.')
				}
			}
		}
	}
	if string(got) != want {
		t.Fatalf("seeded schedule moved:\n got %s\nwant %s", got, want)
	}
}

func TestSeededSeedsDiffer(t *testing.T) {
	a := NewSeeded(1, Rates{Transient: 0.5})
	b := NewSeeded(2, Rates{Transient: 0.5})
	same := 0
	const n = 256
	for i := int64(0); i < n; i++ {
		k := Key{Unit: i}
		if (a.At(k) == nil) == (b.At(k) == nil) {
			same++
		}
	}
	if same == n {
		t.Fatal("different seeds produced identical fault schedules")
	}
}

func TestSeededRatesRoughlyHonoured(t *testing.T) {
	inj := NewSeeded(7, Rates{Transient: 0.25})
	faults := 0
	const n = 4000
	for i := int64(0); i < n; i++ {
		if inj.At(Key{Unit: i}) != nil {
			faults++
		}
	}
	frac := float64(faults) / n
	if frac < 0.20 || frac > 0.30 {
		t.Fatalf("observed fault rate %.3f for configured 0.25", frac)
	}
}

func TestSeededInvalidRatesPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("rates summing past 1 must panic")
		}
	}()
	NewSeeded(1, Rates{Transient: 0.7, Hard: 0.7})
}

func TestErrorClassification(t *testing.T) {
	tr := &Error{Key: Key{Unit: 3}}
	hd := &Error{IsHard: true}
	if !Transient(tr) || Transient(hd) {
		t.Fatal("transient classification wrong")
	}
	if Hard(tr) || !Hard(hd) {
		t.Fatal("hard classification wrong")
	}
	wrapped := fmt.Errorf("tile 4: %w", tr)
	if !Transient(wrapped) {
		t.Fatal("classification must see through wrapping")
	}
	if Transient(errors.New("genuine")) || Hard(errors.New("genuine")) {
		t.Fatal("genuine errors must not classify as injected")
	}
}

// TestErrorMessage pins the text a chaos log line carries: the site and
// the whole key, from which the event can be replayed.
func TestErrorMessage(t *testing.T) {
	err := &Error{Key: Key{Batch: 1, Unit: 2, Attempt: 3, Device: 4}, IsHard: true}
	const want = "fault: injected hard failure at device.run (batch 1, unit 2, attempt 3, device 4)"
	if got := err.Error(); got != want {
		t.Fatalf("message %q, want %q", got, want)
	}
}

func TestFromPanic(t *testing.T) {
	err := &Error{}
	if got, ok := FromPanic(Panic{Err: err}); !ok || got != err {
		t.Fatalf("FromPanic(%v) = %v, %v", err, got, ok)
	}
	if _, ok := FromPanic("unrelated"); ok {
		t.Fatal("unrelated panic must not classify as injected")
	}
}
