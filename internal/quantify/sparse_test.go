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

// requireSparseMatchesDense asserts that a sparse (index, prob) report
// equals the dense vector's positive entries exactly — same indices, same
// order, bitwise-equal probabilities.
func requireSparseMatchesDense(t *testing.T, sparse []IndexProb, dense []float64) {
	t.Helper()
	want := PositiveInto(dense, 0, nil)
	if len(sparse) != len(want) {
		t.Fatalf("sparse has %d entries, dense has %d positive", len(sparse), len(want))
	}
	for i := range want {
		if sparse[i] != want[i] {
			t.Fatalf("entry %d: sparse %v, dense %v", i, sparse[i], want[i])
		}
	}
}

func TestExactSubsetPositiveMatchesDense(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		r := rand.New(rand.NewSource(seed))
		pts := workload.RandomDiscrete(r, 30, 4, 60, 5, 3)
		locs := Flatten(pts)
		for _, q := range workload.QueryPoints(r, 40, workload.DiscreteBBox(pts)) {
			dense := ExactSubset(locs, len(pts), q)
			sparse := ExactSubsetPositiveInto(locs, q, nil)
			requireSparseMatchesDense(t, sparse, dense)
		}
	}
}

// The sparse sweep must stay exact on subsets too (the spiral calls it
// with the m nearest locations only), including under coincident
// locations, which exercise the tie-group and zero-factor branches.
func TestExactSubsetPositiveTies(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	pts := workload.RandomDiscrete(r, 12, 3, 10, 2, 2)
	locs := Flatten(pts)
	// Duplicate a few locations across owners to force exact distance ties.
	locs = append(locs, Location{Owner: 0, P: locs[5].P, W: 0.25},
		Location{Owner: 3, P: locs[5].P, W: 0.25})
	for _, q := range workload.QueryPoints(r, 30, workload.DiscreteBBox(pts)) {
		dense := ExactSubset(locs, len(pts), q)
		sparse := ExactSubsetPositiveInto(locs, q, nil)
		requireSparseMatchesDense(t, sparse, dense)
	}
	// A query exactly on a shared location.
	q := locs[5].P
	requireSparseMatchesDense(t, ExactSubsetPositiveInto(locs, q, nil), ExactSubset(locs, len(pts), q))
}

// The Monte Carlo report must equal a brute-force tally over the same
// instantiations, which replaying the construction's draws reproduces
// (rounds in order, one draw per point in index order).
func TestMonteCarloSparseMatchesDense(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	pts := workload.RandomDiscrete(r, 25, 4, 60, 5, 2)
	const rounds = 150
	mc := NewMonteCarloDiscrete(pts, rounds, rand.New(rand.NewSource(11)))
	replay := rand.New(rand.NewSource(11))
	insts := make([][]geom.Point, rounds)
	for j := range insts {
		insts[j] = make([]geom.Point, len(pts))
		for i, p := range pts {
			insts[j][i] = p.SamplePoint(replay)
		}
	}
	inv := 1 / float64(rounds)
	var buf []IndexProb
	for _, q := range workload.QueryPoints(r, 40, workload.DiscreteBBox(pts)) {
		counts := make([]int, len(pts))
		for _, inst := range insts {
			best := 0
			for i, p := range inst {
				if p.Dist2(q) < inst[best].Dist2(q) {
					best = i
				}
			}
			counts[best]++
		}
		dense := make([]float64, len(pts))
		for i, c := range counts {
			dense[i] = float64(c) * inv
		}
		buf = mc.EstimatePositiveInto(q, buf)
		requireSparseMatchesDense(t, buf, dense)
	}
}

// The spiral report must equal the dense subset sweep over the m(ρ,ε)
// nearest locations found by sorting all of them.
func TestSpiralSparseMatchesDense(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	pts := workload.RandomDiscrete(r, 40, 4, 80, 4, 4)
	sp := NewSpiral(pts)
	locs := Flatten(pts)
	var buf []IndexProb
	for _, eps := range []float64{0.2, 0.05, 0.01} {
		for _, q := range workload.QueryPoints(r, 30, workload.DiscreteBBox(pts)) {
			near := slices.Clone(locs)
			slices.SortStableFunc(near, func(a, b Location) int { return cmp.Compare(a.P.Dist2(q), b.P.Dist2(q)) })
			dense := ExactSubset(near[:sp.M(eps)], len(pts), q)
			buf = sp.EstimatePositiveInto(q, eps, buf)
			requireSparseMatchesDense(t, buf, dense)
		}
	}
}

// A weight spread near 1e18 puts ⌈ρk·ln(ρ/ε)⌉ past the int range. M must
// still cap at N, so the estimates keep Theorem 4.7's one-sided bound
// π̂ ≤ π ≤ π̂ + ε.
func TestSpiralLargeSpread(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	pts := make([]*dist.Discrete, 40)
	for i := range pts {
		c := geom.Pt(r.Float64()*100, r.Float64()*100)
		locs := []geom.Point{c, c.Add(geom.Dir(r.Float64() * 2 * math.Pi).Scale(1 + r.Float64()*5))}
		w := []float64{0.5, 0.5}
		if i == 0 {
			w = []float64{1e-18, 1 - 1e-18}
		}
		pts[i] = mustDiscrete(t, locs, w)
	}
	sp := NewSpiral(pts)
	const eps = 0.05
	if m := sp.M(eps); m != 80 {
		t.Fatalf("M(%g) = %d at ρ = %g, want all 80 locations", eps, m, sp.Rho())
	}
	for probe := 0; probe < 200; probe++ {
		q := geom.Pt(r.Float64()*110-5, r.Float64()*110-5)
		exact := ExactAll(pts, q)
		got := Scatter(len(pts), sp.EstimatePositiveInto(q, eps, nil))
		for i := range exact {
			if got[i] > exact[i]+1e-9 || exact[i] > got[i]+eps+1e-9 {
				t.Fatalf("q=%v: π̂_%d = %v, π = %v (ε=%g)", q, i, got[i], exact[i], eps)
			}
		}
	}
}

func TestPositiveInto(t *testing.T) {
	pi := []float64{0, 0.5, 0, 0.25, 0.25}
	buf := make([]IndexProb, 0, 8)
	got := PositiveInto(pi, 0, buf)
	want := []IndexProb{{I: 1, P: 0.5}, {I: 3, P: 0.25}, {I: 4, P: 0.25}}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	if &got[0] != &buf[:1][0] {
		t.Fatal("PositiveInto did not reuse the caller buffer")
	}
}

// The kd-tree k-NN must answer identically through the pooled
// no-allocation path and report in increasing distance order.
func TestSpiralBackendsAgree(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	pts := workload.RandomDiscrete(r, 30, 3, 50, 3, 2)
	kd := NewSpiral(pts)
	qt := NewSpiralQuadtree(pts)
	for _, q := range workload.QueryPoints(r, 25, workload.DiscreteBBox(pts)) {
		a := Scatter(len(pts), kd.EstimatePositiveInto(q, 0.05, nil))
		b := Scatter(len(pts), qt.EstimatePositiveInto(q, 0.05, nil))
		for i := range a {
			if diff := a[i] - b[i]; diff > 1e-12 || diff < -1e-12 {
				t.Fatalf("kd and quadtree spiral disagree at %d: %v vs %v", i, a[i], b[i])
			}
		}
	}
}
