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
// the independent reference. Recorded with the conjugate-pair fold of
// PR 23, which moved every row at rounding level (the nominal-focus sum
// runs over six doubled weights instead of twelve); against the bits
// before it TestFoldedMatchesUnfolded is the bound.
//
// amd64 only, like core.TestGoldenMaskHash.
func TestGoldenLossGrad(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden hashes are recorded on amd64, not %s", runtime.GOARCH)
	}
	want := map[string]string{
		"n64/pv0/stretch1":    "4a4ffe07ba4ec26d2bb678dfc5d2e047a0e096426be3f6c4aeff7f21cb1acd3d",
		"n64/pv0/stretch2":    "d12e03b3db2d38f2ad6255d7c60ea6217b27eec3a50afbd1f4058fac196c4d2e",
		"n64/pv0.5/stretch1":  "1df972231568539fcd1dae8796dd15496a1380d7fa49df259d33ab9ca8ae9ddc",
		"n64/pv0.5/stretch2":  "ea4bd92792c75888ccd968d1e045db9895f1e45f59f9874340a31a61c1eadb30",
		"n128/pv0/stretch1":   "4c0fafeb3afcd305c4deedbe26e25f75ad786f53ec61b26cbfc1a73d88d48867",
		"n128/pv0/stretch2":   "15fc92aed4c3c5811fd3ac6b6b73b776013b64f23c5784cafd2b066761bc5da1",
		"n128/pv0.5/stretch1": "5063a86f68ed0c403d53fd597cd09f53d63e333a93471b607d50e9908e513c3d",
		"n128/pv0.5/stretch2": "123369c2f8e0010e16112f3c24a3000687879ccf79db5f17adf64e3d71d15643",
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
