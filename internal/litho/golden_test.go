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
// the independent reference. Recorded with the table-driven exponential
// of Sigmoid, which moved every row at rounding level (a few ulps per
// resist value); against the bits before it TestSigmoidAccuracy,
// TestLossGradCentralDifference and TestDirectHopkinsReference are the
// bound.
//
// The hashes are amd64 facts, not portable ones. arm64 contracts a·b+c
// into fused multiply-adds (and other ports carry their own math.Exp and
// math.Log), so its bits differ; CI only vets arm64 and never records
// them there. On amd64 the AVX2 twins and the Go loops give the same
// bits, so the hashes hold with AVX2 and without.
func TestGoldenLossGrad(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden hashes are recorded on amd64, not %s", runtime.GOARCH)
	}
	want := map[string]string{
		"n64/pv0/stretch1":    "7afa00ec89b8dc7a0eb4dd4e4412fe41b8b8906bb99bfe0c0e0d6a9b678e0a29",
		"n64/pv0/stretch2":    "b12c48fb50a8df2f5a2c9a0214d31fb228e902200e3badbe470841e474e266ce",
		"n64/pv0.5/stretch1":  "3c4068d58d3198b44a0d13b0c174ed3c6bb3a8fec36a78acbeade6b42bb4e46c",
		"n64/pv0.5/stretch2":  "0b985a94b2009b9c55019eb045684986b5322fc0d8751fdfd6c46e08621142a3",
		"n128/pv0/stretch1":   "61e47e9320dc780740780f0ef1488d0d08c7219ce7ba933beb805a38e42733e3",
		"n128/pv0/stretch2":   "6f541dcda9ce9111a1c545e8946944639e1b72ca103beee8fd48b75613aa57c3",
		"n128/pv0.5/stretch1": "57ea31a11ae60e008aeab7e9f56c2249fc36446f935bb8e25c0b94cabf36c2f1",
		"n128/pv0.5/stretch2": "527a29933c57b613663b0531ecd47afaf9f5cc66a9f5697cce97534b45ac1680",
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
