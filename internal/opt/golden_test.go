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
// MultiLevel). Last recorded with PR 23's conjugate-pair fold of the
// Hopkins sum, which moves every continuous mask at rounding level;
// Curvy's output is binary and did not move.
//
// amd64 only, like core.TestGoldenMaskHash.
func TestGoldenSolveHash(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden hashes are recorded on amd64, not %s", runtime.GOARCH)
	}
	want := map[string]string{
		"admm":       "cc1664f88408a6286ecd6b155cbb8235157fb9adeef4cb247cb3f1a2a28c1cde",
		"curvy":      "72bf381d82bb4dd580de27eed5261e80b264de5c2003a909f0c43b12548bdfed",
		"levelset":   "38443927977cdc2f0c00ff0a21328997d9c0bd5ed8fb3d0f69a212100efc7444",
		"multilevel": "9a64fb5157679aa8f9fcbff9822b11c560d2ec353e1bee9c94c9ac9b8ef2e75a",
		"pixel":      "b97844d4575e7518e2b9f64780c07faf7ae8a886216c237d5f4c4ce31763c4cd",
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
