package quantify

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"

	"pnn/internal/dist"
	"pnn/internal/geom"
	"pnn/internal/workload"
)

// fullSweep is the reference the window kernel must reproduce bit for
// bit: the Eq. (2) sweep over every flattened location, distance ties in
// input order (a stable sort by d²), owners zeroed with their last
// location.
func fullSweep(pts []*dist.Discrete, q geom.Point) []float64 {
	locs := Flatten(pts)
	recs := make([]subsetRec, len(locs))
	left := make([]int, len(pts))
	for i, l := range locs {
		recs[i] = subsetRec{d2: l.P.Dist2(q), Location: l}
		left[l.Owner]++
	}
	slices.SortStableFunc(recs, func(a, b subsetRec) int { return cmp.Compare(a.d2, b.d2) })
	pi := make([]float64, len(pts))
	factor := make([]float64, len(pts))
	for j := range factor {
		factor[j] = 1
	}
	sweepRecs(recs, pi, factor, left)
	return pi
}

// requireWindowMatchesFull checks the dense (ExactAll) and sparse
// (ExactPositiveInto) window answers against fullSweep, bitwise.
func requireWindowMatchesFull(t *testing.T, pts []*dist.Discrete, q geom.Point) {
	t.Helper()
	want := fullSweep(pts, q)
	got := ExactAll(pts, q)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("q=%v: ExactAll π_%d = %v, full sweep %v", q, i, got[i], want[i])
		}
	}
	requireSparseMatchesDense(t, ExactPositiveInto(pts, q, nil), want)
}

// Weight shapes of the window property test.
const (
	weightsUniform = iota
	weightsSpread5 // random, largest/smallest ≤ 5
	weightsShort   // uniform with the last reduced by 5e-7: Σ = 1 − 5e-7
	numWeightShapes
)

func shapedWeights(r *rand.Rand, shape, k int) []float64 {
	w := make([]float64, k)
	sum := 0.0
	for t := range w {
		w[t] = 1
		if shape == weightsSpread5 {
			w[t] = 1 + 4*r.Float64()
		}
		sum += w[t]
	}
	for t := range w {
		w[t] /= sum
	}
	if shape == weightsShort {
		w[k-1] -= 5e-7
	}
	return w
}

// TestWindowMatchesFullSweep is the exactness property of the Lemma 2.1
// window kernel across seeds, description complexities k = 1..9, and
// weight shapes — including weights short of 1, where only whole-owner
// zeroing keeps the full sweep from crediting points outside NN≠0.
func TestWindowMatchesFullSweep(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		for k := 1; k <= 9; k++ {
			for shape := 0; shape < numWeightShapes; shape++ {
				r := rand.New(rand.NewSource(seed*100 + int64(10*k+shape)))
				pts := make([]*dist.Discrete, 40)
				for i := range pts {
					c := geom.Pt(r.Float64()*60, r.Float64()*60)
					locs := make([]geom.Point, k)
					for t := range locs {
						locs[t] = c.Add(geom.Dir(r.Float64() * 2 * math.Pi).Scale(r.Float64() * 6))
					}
					pts[i] = mustDiscrete(t, locs, shapedWeights(r, shape, k))
				}
				for _, q := range workload.QueryPoints(r, 20, workload.DiscreteBBox(pts)) {
					requireWindowMatchesFull(t, pts, q)
				}
			}
		}
	}
}

// TestWindowTieOrder pins the (d², input position) order of tied
// distances: unit-spaced grid locations shared across owners, queried on
// grid and half-grid points, so most distances tie. Each owner spans the
// grid, which keeps windows large enough for an unstable d²-only sort to
// permute the ties.
func TestWindowTieOrder(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 6; trial++ {
		pts := make([]*dist.Discrete, 25)
		for i := range pts {
			k := 3 + r.Intn(4)
			locs := make([]geom.Point, k)
			for t := range locs {
				locs[t] = geom.Pt(float64(r.Intn(7)), float64(r.Intn(7)))
			}
			pts[i] = mustDiscrete(t, locs, shapedWeights(r, weightsSpread5, k))
		}
		// Copy a few whole location sets onto other owners.
		for d := 0; d < 5; d++ {
			src, dst := pts[r.Intn(len(pts))], r.Intn(len(pts))
			pts[dst] = mustDiscrete(t, slices.Clone(src.Locs), slices.Clone(src.W))
		}
		for x := -1; x <= 13; x++ {
			for y := -1; y <= 13; y++ {
				requireWindowMatchesFull(t, pts, geom.Pt(float64(x)/2, float64(y)/2))
			}
		}
	}
}

// TestWindowIsSmall is the non-vacuity check of the kernel: on a
// clustered 10k×4 set (the benchmark's shape) the window holds a few
// dozen of the 40,000 locations, and still reproduces the full sweep.
func TestWindowIsSmall(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	pts := workload.RandomDiscrete(r, 10000, 4, 100, 3, 1)
	qs := workload.QueryPoints(r, 200, workload.DiscreteBBox(pts))
	sc := new(windowScratch)
	total := 0
	for _, q := range qs {
		sc.sweep(pts, q)
		total += len(sc.recs)
	}
	if mean := float64(total) / float64(len(qs)); mean >= 0.05*40000 {
		t.Fatalf("mean window %.0f locations, want < 5%% of 40000", mean)
	}
	for _, q := range qs[:5] {
		requireWindowMatchesFull(t, pts, q)
	}
}
