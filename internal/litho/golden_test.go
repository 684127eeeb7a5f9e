package litho

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// TestGoldenLossGrad pins (loss, gradient) of LossGrad: the SHA-256 of
// Float64bits(loss) followed by the gradient's, little endian.
// LossGradBatch ≡ LossGrad compares one routine with itself, so this is
// the independent reference. Recorded with the 3·2^k reduced grids and
// the real-output inverses (fft.InverseRealBand), which moved every row
// at rounding level; against the bits before them TestReducedMatchesDense
// and TestDirectHopkinsReference are the bound.
//
// amd64 only, like core.TestGoldenMaskHash.
func TestGoldenLossGrad(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden hashes are recorded on amd64, not %s", runtime.GOARCH)
	}
	want := map[string]string{
		"n64/pv0/stretch1":    "e2771fd48cc1058ec58b0d86b9d9be4fcf521e265e186db82449c17b4b3c0add",
		"n64/pv0/stretch2":    "89b7000e21d54715c0dbc82c31790948aeb2b41581b028b602cb8f0c9f09b21b",
		"n64/pv0.5/stretch1":  "b1b0bfd61fd25f45eed5d558ef7c40316176e71589b97b096efce50b8e2708bd",
		"n64/pv0.5/stretch2":  "9f1b1644275b8490d0816bc5bfb4c9cdc059716aa3161f8d8e2f5bd22d382e61",
		"n128/pv0/stretch1":   "1fd47ceac2e5046b82a9089b32e892a6e3a74fef118dbb4a45e317d2a8981081",
		"n128/pv0/stretch2":   "93ffb0486802e7b86799eba554a84e9df91ba3526cb1e6ee665d8858e65c1775",
		"n128/pv0.5/stretch1": "19e08ef7237288b58c7b7b850f41380ac5a3948785f6783b2c1fc5a9909613ad",
		"n128/pv0.5/stretch2": "10d587f1f4a0eee77746e64b7e83df313a8c91cf39668db91de0fe16b4d15f63",
	}
	for _, n := range []int{64, 128} {
		sim, err := NewStandard(n)
		if err != nil {
			t.Fatal(err)
		}
		mask, target := greyMask(rand.New(rand.NewSource(int64(n))), n), centredSquare(n, n/3)
		for _, pv := range []float64{0, 0.5} {
			for _, stretch := range []int{1, 2} {
				name := fmt.Sprintf("n%d/pv%g/stretch%d", n, pv, stretch)
				loss, grad := sim.LossGrad(mask, target, LossOpts{Stretch: stretch, PVWeight: pv})
				h := sha256.New()
				var b [8]byte
				for _, v := range append([]float64{loss}, grad.Data...) {
					binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
					h.Write(b[:])
				}
				if got := fmt.Sprintf("%x", h.Sum(nil)); got != want[name] {
					t.Errorf("%s: hash %s, want %s", name, got, want[name])
				}
			}
		}
	}
}
