package opt

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"testing"
)

// TestGoldenSolveHash pins the output mask of every registered solver on
// one frozen-ring tile: the SHA-256 of the mask's Float64bits, little
// endian. It covers the Pixel descent loop and the solvers that only
// share the loss evaluation (LevelSet, MultiLevel). Last recorded with the
// table-driven exponential of litho.Sigmoid in the mask and resist sweeps,
// which moves every continuous mask at rounding level.
//
// The hashes are amd64 facts, not portable ones. arm64 contracts a·b+c
// into fused multiply-adds (and other ports carry their own math.Exp and
// math.Log), so its bits differ; CI only vets arm64 and never records
// them there. On amd64 the AVX2 twins and the Go loops give the same
// bits, so the hashes hold with AVX2 and without.
func TestGoldenSolveHash(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden hashes are recorded on amd64, not %s", runtime.GOARCH)
	}
	want := map[string]string{
		"levelset":   "b583ec88a176aa221b1e4de1568decae636bf27dc4ce4e24eb463cf9b913be71",
		"multilevel": "9f7747c3e5bb355a750eb0e9be342ec54be7d5d6a32f7db7fe00d20144635067",
		"pixel":      "2309ee2d407e0ec9a454c4a357fce621068465b952705322aa4a80edc29d3a97",
	}
	sim := testSim(t)
	target := testTarget()
	init := target.Clone().Scale(0.7)
	for _, name := range Names() {
		sv, err := New(name, sim)
		if err != nil {
			t.Fatal(err)
		}
		out, err := sv.Solve(target, init, Params{Iters: 8, LR: 0.4, Stretch: 1, PVWeight: 0.3, Freeze: ringFreeze(testN)})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		h := sha256.New()
		var b [8]byte
		for _, v := range out.Data {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)); got != want[name] {
			t.Errorf("%s: hash %s, want %s", name, got, want[name])
		}
	}
}
