package shard

import (
	"math"
	"math/rand"
	"testing"

	"mgsilt/internal/grid"
	"mgsilt/internal/tile"
)

// shardGeoms mirrors the tile package's metamorphic geometry table:
// every case satisfies Part's exact-cover constraint.
var shardGeoms = []struct {
	name               string
	h, w, tile, margin int
}{
	{"128x128-t64-m16", 128, 128, 64, 16},
	{"96x96-t32-m8", 96, 96, 32, 8},
	{"64x64-t32-m8", 64, 64, 32, 8},
	{"160x96-t32-m8", 160, 96, 32, 8},
}

var shardCounts = []int{1, 2, 3, 4, 5}

// TestAssignWorkerExactlyOnce asserts the placement function's core
// property: over any partition and any live worker count, every tile
// lands on exactly one in-range worker, and the load is balanced to
// within one tile.
func TestAssignWorkerExactlyOnce(t *testing.T) {
	for _, gm := range shardGeoms {
		p := tile.MustPart(gm.h, gm.w, gm.tile, gm.margin)
		for _, count := range shardCounts {
			seen := make(map[int]int)
			load := make([]int, count)
			for _, s := range p.Tiles {
				g := AssignWorker(s.Index, count)
				if g < 0 || g >= count {
					t.Fatalf("%s: tile %d assigned to worker %d of %d", gm.name, s.Index, g, count)
				}
				seen[s.Index]++
				load[g]++
			}
			if len(seen) != len(p.Tiles) {
				t.Fatalf("%s/%d workers: %d of %d tiles assigned", gm.name, count, len(seen), len(p.Tiles))
			}
			for idx, n := range seen {
				if n != 1 {
					t.Fatalf("%s/%d workers: tile %d assigned %d times", gm.name, count, idx, n)
				}
			}
			lo, hi := load[0], load[0]
			for _, n := range load {
				if n < lo {
					lo = n
				}
				if n > hi {
					hi = n
				}
			}
			if hi-lo > 1 {
				t.Fatalf("%s/%d workers: unbalanced load %v", gm.name, count, load)
			}
		}
	}
}

func TestAssignWorkerEdgeCases(t *testing.T) {
	if g := AssignWorker(-1, 3); g != 2 {
		t.Fatalf("negative index wrapped to %d, want 2", g)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("AssignWorker with no live workers must panic")
		}
	}()
	AssignWorker(0, 0)
}

// haloPixel reports whether tile-local pixel (y, x) of spec s lies in
// the tile's halo — outside the core rectangle the tile owns.
func haloPixel(p *tile.Partition, s tile.Spec, y, x int) bool {
	ly, lx := s.Y0+y, s.X0+x
	return ly < s.CoreY0 || ly >= s.CoreY1 || lx < s.CoreX0 || lx >= s.CoreX1
}

// TestCoresPartitionLayout asserts pixel-level exactly-once ownership:
// every layout pixel belongs to exactly one tile's core, so each halo
// pixel of any tile is owned by exactly one *other* tile — the data a
// halo strip carries is always some neighbour's authoritative output.
func TestCoresPartitionLayout(t *testing.T) {
	for _, gm := range shardGeoms {
		p := tile.MustPart(gm.h, gm.w, gm.tile, gm.margin)
		owners := grid.NewMat(gm.h, gm.w)
		for _, s := range p.Tiles {
			for y := s.CoreY0; y < s.CoreY1; y++ {
				for x := s.CoreX0; x < s.CoreX1; x++ {
					owners.Set(y, x, owners.At(y, x)+1)
				}
			}
		}
		for y := 0; y < gm.h; y++ {
			for x := 0; x < gm.w; x++ {
				if owners.At(y, x) != 1 {
					t.Fatalf("%s: pixel (%d,%d) owned by %g cores", gm.name, y, x, owners.At(y, x))
				}
			}
		}
	}
}

// TestHaloPatchCoversExactlyTheOverlap is the halo-exchange geometry
// contract: when a tile's init changes only in its overlap halo (the
// fine-Schwarz steady state — neighbours' blended data refreshed, the
// interior untouched), the diff patch carries exactly the halo pixels,
// and when only the core changes, the patch never touches the halo.
func TestHaloPatchCoversExactlyTheOverlap(t *testing.T) {
	rn := rand.New(rand.NewSource(9))
	for _, gm := range shardGeoms {
		p := tile.MustPart(gm.h, gm.w, gm.tile, gm.margin)
		for _, s := range p.Tiles {
			base := randMat(rn, p.Tile, p.Tile)

			// Perturb exactly the halo frame.
			next := base.Clone()
			haloSize := 0
			for y := 0; y < p.Tile; y++ {
				for x := 0; x < p.Tile; x++ {
					if haloPixel(p, s, y, x) {
						next.Set(y, x, next.At(y, x)+0.5)
						haloSize++
					}
				}
			}
			patch := DiffPatch(base, next)
			if patch == nil {
				t.Fatalf("%s tile %d: nil patch", gm.name, s.Index)
			}
			covered := 0
			for _, r := range patch.Runs {
				for i := range r.Vals {
					if !haloPixel(p, s, r.Y, r.X0+i) {
						t.Fatalf("%s tile %d: halo patch leaked into core at (%d,%d)", gm.name, s.Index, r.Y, r.X0+i)
					}
					covered++
				}
			}
			if covered != haloSize {
				t.Fatalf("%s tile %d: patch covers %d of %d halo pixels", gm.name, s.Index, covered, haloSize)
			}

			// And the converse: a core-only change never rides the halo.
			next = base.Clone()
			coreSize := 0
			for y := 0; y < p.Tile; y++ {
				for x := 0; x < p.Tile; x++ {
					if !haloPixel(p, s, y, x) {
						next.Set(y, x, next.At(y, x)-0.25)
						coreSize++
					}
				}
			}
			patch = DiffPatch(base, next)
			covered = 0
			for _, r := range patch.Runs {
				for i := range r.Vals {
					if haloPixel(p, s, r.Y, r.X0+i) {
						t.Fatalf("%s tile %d: core patch leaked into halo at (%d,%d)", gm.name, s.Index, r.Y, r.X0+i)
					}
					covered++
				}
			}
			if covered != coreSize {
				t.Fatalf("%s tile %d: patch covers %d of %d core pixels", gm.name, s.Index, covered, coreSize)
			}
		}
	}
}

// TestAssemblyInvariantUnderSharding asserts the property the whole
// distributed design rests on: because the coordinator re-indexes
// worker responses and the flow assembles in tile-index order, the
// assembled layout is byte-identical no matter how the tiles were
// grouped into shards or in which order the shards returned.
func TestAssemblyInvariantUnderSharding(t *testing.T) {
	rn := rand.New(rand.NewSource(13))
	for _, gm := range shardGeoms {
		p := tile.MustPart(gm.h, gm.w, gm.tile, gm.margin)
		weights, err := p.Weights(2 * gm.margin)
		if err != nil {
			t.Fatal(err)
		}
		sols := make([]*grid.Mat, len(p.Tiles))
		for i := range sols {
			sols[i] = randMat(rn, p.Tile, p.Tile)
		}
		ref := p.Assemble(sols, weights)

		for _, count := range []int{1, 2, 4, len(p.Tiles)} {
			// Simulate shard dispatch and out-of-order arrival: group by
			// the production placement function, then integrate the groups
			// in reverse order with each shard's tiles reversed too.
			groups := make([][]int, count)
			for _, s := range p.Tiles {
				g := AssignWorker(s.Index, count)
				groups[g] = append(groups[g], s.Index)
			}
			placed := make([]*grid.Mat, len(p.Tiles))
			for g := count - 1; g >= 0; g-- {
				for i := len(groups[g]) - 1; i >= 0; i-- {
					idx := groups[g][i]
					placed[idx] = sols[idx]
				}
			}
			got := p.Assemble(placed, weights)
			bitsEqual(t, ref, got, gm.name+" sharded assembly")
		}
	}
}

// TestPartitionOfUnityAcrossShardGroups asserts that the weighted
// interpolation operator still sums to one at every layout pixel when
// its tiles are accumulated shard group by shard group — no shard
// boundary dents the blend.
func TestPartitionOfUnityAcrossShardGroups(t *testing.T) {
	for _, gm := range shardGeoms {
		p := tile.MustPart(gm.h, gm.w, gm.tile, gm.margin)
		for _, d := range []int{0, gm.margin, 2 * gm.margin} {
			weights, err := p.Weights(d)
			if err != nil {
				t.Fatal(err)
			}
			for _, count := range []int{1, 2, 4} {
				total := grid.NewMat(gm.h, gm.w)
				for g := 0; g < count; g++ {
					groupSum := grid.NewMat(gm.h, gm.w)
					for _, s := range p.Tiles {
						if AssignWorker(s.Index, count) != g {
							continue
						}
						for y := 0; y < p.Tile; y++ {
							for x := 0; x < p.Tile; x++ {
								ly, lx := s.Y0+y, s.X0+x
								groupSum.Set(ly, lx, groupSum.At(ly, lx)+weights[s.Index].At(y, x))
							}
						}
					}
					total.AddScaled(groupSum, 1)
				}
				for y := 0; y < gm.h; y++ {
					for x := 0; x < gm.w; x++ {
						if v := total.At(y, x); math.Abs(v-1) > 1e-9 {
							t.Fatalf("%s d=%d count=%d: weight sum %g at (%d,%d)", gm.name, d, count, v, y, x)
						}
					}
				}
			}
		}
	}
}
