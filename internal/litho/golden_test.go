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

// TestGoldenLossGrad pins (loss, gradient) of LossGrad to the bits of
// the commit before PR 14, whose LossGrad was a routine of its own beside
// the batched one: the SHA-256 of Float64bits(loss) followed by the
// gradient's, little endian. LossGradBatch ≡ LossGrad now compares one
// routine with itself, so this is the independent reference.
//
// amd64 only, like core.TestGoldenMaskHash.
func TestGoldenLossGrad(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden hashes are recorded on amd64, not %s", runtime.GOARCH)
	}
	want := map[string]string{
		"n64/pv0/stretch1/fidelity1":      "d3ccf653e45e666f5614c95bc88ad92b7d15676b93f9cb8774479020daf1990d",
		"n64/pv0/stretch1/fidelity0.9":    "a988b59582cd16ecb96de1710b67fb2f8959582ab4f430d63754b2c801a32fb2",
		"n64/pv0/stretch2/fidelity1":      "6fdec123d0ae1bb98911efa3e5e75db0ad62ae2c1339e933eb78732cace457fc",
		"n64/pv0/stretch2/fidelity0.9":    "bd1799e3a88c9a75c5773c8ee0c3e0d4bc1f8e50d1c7e04a8de71194bcf63df6",
		"n64/pv0.5/stretch1/fidelity1":    "177b23e518c8cfb60496bc4b83723fe827fc6ba7e9fa4e8cd66c2de0bec8aa2e",
		"n64/pv0.5/stretch1/fidelity0.9":  "5374d85d8e392f439a1f1cdf19e551c4e26bc8da9de0428c6c836531c00d3648",
		"n64/pv0.5/stretch2/fidelity1":    "1c66ff3ab005bed8ecc3fd4195c39423439c00eb4c0c934405f5165bf79dca21",
		"n64/pv0.5/stretch2/fidelity0.9":  "812f76442a720219658387517897500bebf60d396212d33994f9993aac8344cd",
		"n128/pv0/stretch1/fidelity1":     "51468a57359e21a0560b4519d01aea931f1ebe6dd227faa7fc9f3a24890388e3",
		"n128/pv0/stretch1/fidelity0.9":   "1450f489dc4774d70cecc06efb30f3afed7db388164fe68ddc680fbc26fd19a0",
		"n128/pv0/stretch2/fidelity1":     "97fa98230be036538740039ed7209d48e4ffa21f26506cbfec3bf38fb4ba2085",
		"n128/pv0/stretch2/fidelity0.9":   "c25f148d347da5d3a302a3605c1873b88008f9bf2d060fb881050e3db7ecf293",
		"n128/pv0.5/stretch1/fidelity1":   "70871bf646e3beb825620b35a969955739d10372ef73d052ee51a5329b333db7",
		"n128/pv0.5/stretch1/fidelity0.9": "b55635480416f40e7cdf58ad7a1111d1f07a6d6ec25417898b8e832a9c4a6ed4",
		"n128/pv0.5/stretch2/fidelity1":   "d7eac63f2372b310e084b2bf802e6517607ccb8d115bc747df1ac6f94642a184",
		"n128/pv0.5/stretch2/fidelity0.9": "b27223fdd0991f9f0f7643a8f6d002a5959fe099335988e3be4ab12ae05b3b37",
	}
	for _, n := range []int{64, 128} {
		sim, err := NewStandard(n)
		if err != nil {
			t.Fatal(err)
		}
		mask, target := greyMask(rand.New(rand.NewSource(int64(n))), n), centredSquare(n, n/3)
		for _, pv := range []float64{0, 0.5} {
			for _, stretch := range []int{1, 2} {
				for _, fidelity := range []float64{1, 0.9} {
					name := fmt.Sprintf("n%d/pv%g/stretch%d/fidelity%g", n, pv, stretch, fidelity)
					loss, grad := sim.LossGrad(mask, target, LossOpts{Stretch: stretch, PVWeight: pv, Fidelity: fidelity})
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
}
