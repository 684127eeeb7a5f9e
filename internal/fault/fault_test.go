package fault

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

func TestSeededIsDeterministic(t *testing.T) {
	a := NewSeeded(42).Site(SiteDeviceRun, Rates{Transient: 0.3, Hard: 0.05, Latency: 0.1, Spike: time.Millisecond})
	b := NewSeeded(42).Site(SiteDeviceRun, Rates{Transient: 0.3, Hard: 0.05, Latency: 0.1, Spike: time.Millisecond})
	for batch := int64(0); batch < 4; batch++ {
		for unit := int64(0); unit < 32; unit++ {
			for attempt := int64(0); attempt < 3; attempt++ {
				k := Key{Batch: batch, Unit: unit, Attempt: attempt, Device: unit % 2}
				fa, fb := a.At(SiteDeviceRun, k), b.At(SiteDeviceRun, k)
				if (fa.Err == nil) != (fb.Err == nil) || fa.Hard != fb.Hard || fa.Latency != fb.Latency {
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
	inj := NewSeeded(42).Site(SiteDeviceRun, Rates{Transient: 0.3, Hard: 0.05, Latency: 0.1, Spike: time.Millisecond})
	for unit := int64(0); unit < 64; unit++ {
		base := inj.At(SiteDeviceRun, Key{Unit: unit})
		for dev := int64(1); dev < 8; dev++ {
			f := inj.At(SiteDeviceRun, Key{Unit: unit, Device: dev})
			if (f.Err == nil) != (base.Err == nil) || f.Hard != base.Hard || f.Latency != base.Latency {
				t.Fatalf("fault decision for unit %d changed with device %d: %+v vs %+v", unit, dev, f, base)
			}
		}
	}
}

func TestSeededSeedsDiffer(t *testing.T) {
	a := NewSeeded(1).Site(SiteDeviceRun, Rates{Transient: 0.5})
	b := NewSeeded(2).Site(SiteDeviceRun, Rates{Transient: 0.5})
	same := 0
	const n = 256
	for i := int64(0); i < n; i++ {
		k := Key{Unit: i}
		if (a.At(SiteDeviceRun, k).Err == nil) == (b.At(SiteDeviceRun, k).Err == nil) {
			same++
		}
	}
	if same == n {
		t.Fatal("different seeds produced identical fault schedules")
	}
}

func TestSeededRatesRoughlyHonoured(t *testing.T) {
	inj := NewSeeded(7).Site(SiteDeviceRun, Rates{Transient: 0.25})
	faults := 0
	const n = 4000
	for i := int64(0); i < n; i++ {
		if inj.At(SiteDeviceRun, Key{Unit: i}).Err != nil {
			faults++
		}
	}
	frac := float64(faults) / n
	if frac < 0.20 || frac > 0.30 {
		t.Fatalf("observed fault rate %.3f for configured 0.25", frac)
	}
}

func TestSeededUnconfiguredSiteNeverFaults(t *testing.T) {
	inj := NewSeeded(3).Site(SiteDeviceRun, Rates{Transient: 1})
	for i := int64(0); i < 100; i++ {
		if f := inj.At(SiteLithoAerial, Key{Unit: i}); f.Err != nil || f.Latency != 0 {
			t.Fatalf("unconfigured site faulted: %+v", f)
		}
	}
}

func TestSeededInvalidRatesPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("rates summing past 1 must panic")
		}
	}()
	NewSeeded(1).Site(SiteDeviceRun, Rates{Transient: 0.7, Hard: 0.7})
}

func TestErrorClassification(t *testing.T) {
	tr := &Error{Site: SiteDeviceRun, Key: Key{Unit: 3}}
	hd := &Error{Site: SiteDeviceRun, IsHard: true}
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

func TestGlobalHookDisabledByDefault(t *testing.T) {
	if Enabled() {
		t.Fatal("global injector enabled at start-up")
	}
	if f := At(SiteLithoAerial, Key{}); f.Err != nil || f.Latency != 0 {
		t.Fatalf("disabled hook injected %+v", f)
	}
	Enable(NewSeeded(1).Site(SiteLithoAerial, Rates{Transient: 1}))
	defer Enable(nil)
	if !Enabled() {
		t.Fatal("Enable did not install")
	}
	if f := At(SiteLithoAerial, Key{}); f.Err == nil {
		t.Fatal("enabled hook must inject at rate 1")
	}
	Enable(nil)
	if Enabled() {
		t.Fatal("Enable(nil) did not remove")
	}
}

func TestFromPanic(t *testing.T) {
	err := &Error{Site: SiteLithoAerial}
	if got, ok := FromPanic(Panic{Err: err}); !ok || got != err {
		t.Fatalf("FromPanic(%v) = %v, %v", err, got, ok)
	}
	if _, ok := FromPanic("unrelated"); ok {
		t.Fatal("unrelated panic must not classify as injected")
	}
}
