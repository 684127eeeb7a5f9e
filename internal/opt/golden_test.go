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
// endian. It covers Curvy's extraGrad entry into the descent loop and the
// solvers that only share the loss evaluation (ADMM, LevelSet,
// MultiLevel). Last recorded with the 3·2^k reduced grids and real-output
// inverses of the Hopkins evaluation, which move every continuous mask at
// rounding level; Curvy's output is binary and did not move.
//
// amd64 only, like core.TestGoldenMaskHash.
func TestGoldenSolveHash(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden hashes are recorded on amd64, not %s", runtime.GOARCH)
	}
	want := map[string]string{
		"admm":       "0221cc6c2fa77e60d572d35533d5bd04f4496ae9e594f4a859d0099f6f952aa5",
		"curvy":      "72bf381d82bb4dd580de27eed5261e80b264de5c2003a909f0c43b12548bdfed",
		"levelset":   "f2ad2cfc11c549bc5353461bf8040e1ae297f2447446f17a1349df0e67bfb093",
		"multilevel": "56804a4d0458dab624a1543b08e2c5e634da5881caa2ec684871cd1507100425",
		"pixel":      "bbadc3996f7aedfed3df70fd3a3ce2cbe2e3c35dd93f7dc89f882fe7ac91dd15",
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
