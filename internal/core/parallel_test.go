package core

import (
	"testing"
	"time"

	"mgsilt/internal/device"
	"mgsilt/internal/parallel"
)

// TestNestedParallelismNoStarvation drives both parallelism levels at
// once — cluster-level tile dispatch (4 devices) above kernel-level
// convolution fan-out — with a pool narrower than the tile count. The
// pool claims its helpers without blocking and the caller always
// participates, so this must complete rather than deadlock, and must
// still match the serial result bit-for-bit.
func TestNestedParallelismNoStarvation(t *testing.T) {
	prev := parallel.SetWorkers(2) // narrower than the 4-device cluster
	defer parallel.SetWorkers(prev)

	sim := testSim(t)
	target := testClipTarget(t, 11)

	serialCfg := testConfig(t, sim, 3)
	serial, err := MultigridSchwarz(serialCfg, target)
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan *Result, 1)
	errc := make(chan error, 1)
	go func() {
		cfg := testConfig(t, sim, 3)
		cl, err := device.NewCluster(4, 0)
		if err != nil {
			errc <- err
			return
		}
		cfg.Cluster = cl
		res, err := MultigridSchwarz(cfg, target)
		if err != nil {
			errc <- err
			return
		}
		done <- res
	}()

	select {
	case res := <-done:
		if !res.Mask.Equal(serial.Mask) {
			t.Fatal("nested parallel run diverged from serial result")
		}
	case err := <-errc:
		t.Fatal(err)
	case <-time.After(60 * time.Second):
		t.Fatal("nested tile-level × kernel-level parallelism starved the pool")
	}
}
