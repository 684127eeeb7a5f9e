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
// one frozen-ring tile to the bits of the commit before PR 14, when
// Pixel.Solve ran a descent loop of its own beside SolveBatch's: the
// SHA-256 of the mask's Float64bits, little endian. It covers Curvy's
// extraGrad entry into the loop and the solvers that only share the
// loss evaluation (ADMM, LevelSet, MultiLevel).
//
// amd64 only, like core.TestGoldenMaskHash.
func TestGoldenSolveHash(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden hashes are recorded on amd64, not %s", runtime.GOARCH)
	}
	want := map[string]string{
		"admm":       "edfae4d866f9739094f3b1f74503f0c6dcd8aabc6c2d8644b87c07509edbddb5",
		"curvy":      "72bf381d82bb4dd580de27eed5261e80b264de5c2003a909f0c43b12548bdfed",
		"levelset":   "623fa956f0a60eb1f05864809a9e047bc9595eb03c4a29301b7b6294967c829f",
		"multilevel": "19a2ea0e1c609f8289f2aa0880d6c70231ca8d406c7654ee72bc3ab008d47eae",
		"pixel":      "d67cfa595d5debb5bf1ecaa2ff0d503edb9f35592c74b763760883f6ac9af265",
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
