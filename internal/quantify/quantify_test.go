package quantify

import (
	"math"
	"math/rand"
	"testing"

	"pnn/internal/dist"
	"pnn/internal/geom"
)

func mustDiscrete(t testing.TB, locs []geom.Point, w []float64) *dist.Discrete {
	t.Helper()
	d, err := dist.NewDiscrete(locs, w)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func randomPts(r *rand.Rand, n, k int, extent, radius float64) []*dist.Discrete {
	pts := make([]*dist.Discrete, n)
	for i := range pts {
		c := geom.Pt(r.Float64()*extent, r.Float64()*extent)
		locs := make([]geom.Point, k)
		w := make([]float64, k)
		sum := 0.0
		for t := range locs {
			locs[t] = c.Add(geom.Dir(r.Float64() * 2 * math.Pi).Scale(r.Float64() * radius))
			w[t] = 0.5 + r.Float64()
			sum += w[t]
		}
		for t := range w {
			w[t] /= sum
		}
		d, _ := dist.NewDiscrete(locs, w)
		pts[i] = d
	}
	return pts
}

func TestExactTwoCertainPoints(t *testing.T) {
	// Certain points: the nearer one has probability 1.
	pts := []*dist.Discrete{
		mustDiscrete(t, []geom.Point{{X: 0, Y: 0}}, []float64{1}),
		mustDiscrete(t, []geom.Point{{X: 10, Y: 0}}, []float64{1}),
	}
	pi := ExactAll(pts, geom.Pt(1, 0))
	if math.Abs(pi[0]-1) > 1e-12 || math.Abs(pi[1]) > 1e-12 {
		t.Fatalf("π = %v", pi)
	}
}

func TestExactMirrorSymmetry(t *testing.T) {
	// Mirrored configuration: π_0 at q must equal π_1 at the mirrored
	// query (exact ties are avoided by querying off-axis).
	pts := []*dist.Discrete{
		mustDiscrete(t, []geom.Point{{X: -1, Y: 0}, {X: -3, Y: 0}}, []float64{0.5, 0.5}),
		mustDiscrete(t, []geom.Point{{X: 1, Y: 0}, {X: 3, Y: 0}}, []float64{0.5, 0.5}),
	}
	q := geom.Pt(0.37, 0.2)
	qm := geom.Pt(-0.37, 0.2)
	pi := ExactAll(pts, q)
	pim := ExactAll(pts, qm)
	if math.Abs(pi[0]-pim[1]) > 1e-12 || math.Abs(pi[1]-pim[0]) > 1e-12 {
		t.Fatalf("mirror symmetry broken: %v vs %v", pi, pim)
	}
	if math.Abs(pi[0]+pi[1]-1) > 1e-12 {
		t.Fatalf("probabilities must sum to 1: %v", pi)
	}
}

func TestExactTieLosesMassOnlyOnMeasureZero(t *testing.T) {
	// At an exact distance tie Eq. (2) double-blocks both locations (the
	// cdf is defined with ≤). The sweep must reproduce the formula, not
	// "fix" it: here both unit-weight locations tie at distance 1 and each
	// blocks the other, so both probabilities include the tie loss.
	pts := []*dist.Discrete{
		mustDiscrete(t, []geom.Point{{X: -1, Y: 0}}, []float64{1}),
		mustDiscrete(t, []geom.Point{{X: 1, Y: 0}}, []float64{1}),
	}
	pi := ExactAll(pts, geom.Pt(0, 0))
	if pi[0] != 0 || pi[1] != 0 {
		t.Fatalf("tie semantics: %v (Eq. 2 with ≤ gives 0 on ties)", pi)
	}
}

func TestExactHandComputed(t *testing.T) {
	// P_0 at distance 1 (w=0.4) and 3 (w=0.6); P_1 at distance 2 (w=1).
	// π_0 = 0.4·1 + 0.6·(1−1) = 0.4
	// π_1 = 1·(1−0.4) = 0.6
	pts := []*dist.Discrete{
		mustDiscrete(t, []geom.Point{{X: 1, Y: 0}, {X: 3, Y: 0}}, []float64{0.4, 0.6}),
		mustDiscrete(t, []geom.Point{{X: 0, Y: 2}}, []float64{1}),
	}
	pi := ExactAll(pts, geom.Pt(0, 0))
	if math.Abs(pi[0]-0.4) > 1e-12 {
		t.Fatalf("π_0 = %v want 0.4", pi[0])
	}
	if math.Abs(pi[1]-0.6) > 1e-12 {
		t.Fatalf("π_1 = %v want 0.6", pi[1])
	}
}

func TestExactSumsToOne(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 30; trial++ {
		n := 2 + r.Intn(10)
		k := 1 + r.Intn(5)
		pts := randomPts(r, n, k, 50, 5)
		q := geom.Pt(r.Float64()*60-5, r.Float64()*60-5)
		pi := ExactAll(pts, q)
		sum := 0.0
		for _, p := range pi {
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("trial %d: Σπ = %v", trial, sum)
		}
	}
}

func TestExactSweepAgainstNaive(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 30; trial++ {
		n := 2 + r.Intn(8)
		k := 1 + r.Intn(4)
		pts := randomPts(r, n, k, 30, 4)
		q := geom.Pt(r.Float64()*40-5, r.Float64()*40-5)
		locs := Flatten(pts)
		want := exactNaive(locs, n, q)
		got := ExactAll(pts, q)
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-9 {
				t.Fatalf("trial %d: π_%d sweep %v naive %v", trial, i, got[i], want[i])
			}
		}
	}
}

func TestPositiveFilter(t *testing.T) {
	out := PositiveInto([]float64{0, 0.5, 1e-12, 0.3}, 1e-9, nil)
	if len(out) != 2 || out[0].I != 1 || out[1].I != 3 {
		t.Fatalf("positive filter: %+v", out)
	}
}

func TestMonteCarloConvergence(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	pts := randomPts(r, 6, 3, 20, 4)
	q := geom.Pt(10, 10)
	want := ExactAll(pts, q)
	eps := 0.05
	// Use the Chernoff count for a single query point (|Q|=1): tighter
	// than the theorem's union bound but correct for a fixed q.
	s := int(math.Ceil(math.Log(2*6/0.01) / (2 * eps * eps)))
	mc := NewMonteCarloDiscrete(pts, s, r)
	got := Scatter(len(pts), mc.EstimatePositiveInto(q, nil))
	for i := range want {
		if math.Abs(got[i]-want[i]) > eps {
			t.Fatalf("π_%d: MC %v exact %v (ε=%v, s=%d)", i, got[i], want[i], eps, s)
		}
	}
}

func TestMonteCarloEstimateSumsToOne(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	pts := randomPts(r, 5, 2, 20, 3)
	mc := NewMonteCarloDiscrete(pts, 500, r)
	pi := Scatter(len(pts), mc.EstimatePositiveInto(geom.Pt(5, 5), nil))
	sum := 0.0
	nonzero := 0
	for _, p := range pi {
		sum += p
		if p > 0 {
			nonzero++
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("Σπ̂ = %v", sum)
	}
	if nonzero > mc.Rounds() {
		t.Fatalf("at most s entries can be positive: %d > %d", nonzero, mc.Rounds())
	}
}

func TestMonteCarloContinuous(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	// Two disjoint uniform disks; by symmetry a midpoint query gives 1/2.
	ps := []dist.Continuous{
		dist.UniformDisk{D: geom.Dsk(0, 0, 1)},
		dist.UniformDisk{D: geom.Dsk(10, 0, 1)},
	}
	mc := NewMonteCarloContinuous(ps, 4000, r)
	pi := Scatter(len(ps), mc.EstimatePositiveInto(geom.Pt(5, 0), nil))
	if math.Abs(pi[0]-0.5) > 0.05 || math.Abs(pi[1]-0.5) > 0.05 {
		t.Fatalf("π̂ = %v want ≈ [0.5, 0.5]", pi)
	}
	// A query at the left disk's center is certain.
	pi = Scatter(len(ps), mc.EstimatePositiveInto(geom.Pt(0, 0), nil))
	if pi[0] < 0.999 {
		t.Fatalf("π̂_0 = %v want 1", pi[0])
	}
}

func TestSampleCounts(t *testing.T) {
	s := SampleCountDiscrete(10, 3, 0.1, 0.01)
	if s < 100 {
		t.Fatalf("discrete sample count too small: %d", s)
	}
	s2 := SampleCountDiscrete(10, 3, 0.05, 0.01)
	if s2 <= s {
		t.Fatal("halving ε must increase the count")
	}
	if SampleCountContinuous(10, 0.1, 0.01) < s {
		t.Fatal("continuous count must dominate the discrete one")
	}
}

func TestSpiralOneSidedError(t *testing.T) {
	// Lemma 4.6: π̂_i ≤ π_i ≤ π̂_i + ε for every i.
	r := rand.New(rand.NewSource(6))
	for trial := 0; trial < 20; trial++ {
		n := 3 + r.Intn(8)
		k := 2 + r.Intn(3)
		pts := randomPts(r, n, k, 40, 5)
		sp := NewSpiral(pts)
		eps := []float64{0.3, 0.1, 0.02}[trial%3]
		q := geom.Pt(r.Float64()*50-5, r.Float64()*50-5)
		want := ExactAll(pts, q)
		got := Scatter(n, sp.EstimatePositiveInto(q, eps, nil))
		for i := range want {
			if got[i] > want[i]+1e-9 {
				t.Fatalf("trial %d: π̂_%d = %v exceeds π_%d = %v", trial, i, got[i], i, want[i])
			}
			if want[i] > got[i]+eps+1e-9 {
				t.Fatalf("trial %d: π_%d = %v exceeds π̂+ε = %v (ε=%v, m=%d, ρ=%v)",
					trial, i, want[i], got[i]+eps, eps, sp.M(eps), sp.Rho())
			}
		}
	}
}

func TestSpiralRetrievalSize(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	pts := randomPts(r, 20, 3, 100, 3)
	sp := NewSpiral(pts)
	if sp.Rho() < 1 {
		t.Fatalf("spread %v < 1", sp.Rho())
	}
	m1 := sp.M(0.1)
	m2 := sp.M(0.01)
	if m2 < m1 {
		t.Fatal("smaller ε needs at least as many locations")
	}
	if m1 > 20*3 {
		t.Fatal("m must be capped at N")
	}
	// Positive estimates are bounded by the number of owners touched.
	out := sp.EstimatePositiveInto(geom.Pt(50, 50), 0.1, nil)
	if len(out) > sp.M(0.1) {
		t.Fatalf("more positive estimates (%d) than retrieved locations (%d)", len(out), sp.M(0.1))
	}
}

// Remark (i) of Section 4.3: dropping locations with weight below ε/k
// distorts probabilities by more than 2ε and inverts the ranking, while
// spiral search keeps its one-sided bound. This reproduces the paper's
// example: p1's nearest location (weight 3ε), a cloud of nMid
// distinct-point locations each with tiny weight 2/nMid, then p2's
// location (weight 5ε). Remaining mass sits at one shared far spot whose
// coincident locations block each other (Eq. 2's ≤ tie semantics), so it
// cannot interfere with the near field.
func TestSpiralAdversarialLightweights(t *testing.T) {
	eps := 0.02
	nMid := 400
	far := geom.Pt(1e6, 0)
	var pts []*dist.Discrete
	pts = append(pts, mustDiscrete(t,
		[]geom.Point{{X: 1, Y: 0}, far}, []float64{3 * eps, 1 - 3*eps}))
	pts = append(pts, mustDiscrete(t,
		[]geom.Point{{X: 0, Y: 30}, far}, []float64{5 * eps, 1 - 5*eps}))
	light := 2 / float64(nMid)
	for i := 0; i < nMid; i++ {
		ang := 2 * math.Pi * float64(i) / float64(nMid)
		pts = append(pts, mustDiscrete(t,
			[]geom.Point{geom.Dir(ang).Scale(10), far},
			[]float64{light, 1 - light}))
	}
	q := geom.Pt(0, 0)
	exact := ExactAll(pts, q)
	// Closed forms: π_1 = 3ε; π_2 = 5ε(1−3ε)(1−2/nMid)^nMid ≈ 5ε(1−3ε)/e².
	if math.Abs(exact[0]-3*eps) > 1e-9 {
		t.Fatalf("π_1 = %v want %v", exact[0], 3*eps)
	}
	want2 := 5 * eps * (1 - 3*eps) * math.Pow(1-light, float64(nMid))
	if math.Abs(exact[1]-want2) > 1e-9 {
		t.Fatalf("π_2 = %v want %v", exact[1], want2)
	}
	if exact[0] <= exact[1] {
		t.Fatalf("instance malformed: π_1=%v ≤ π_2=%v", exact[0], exact[1])
	}

	// Spiral: one-sided bound and ranking preserved.
	sp := NewSpiral(pts)
	got := Scatter(len(pts), sp.EstimatePositiveInto(q, eps, nil))
	for i := range exact {
		if got[i] > exact[i]+1e-9 || exact[i] > got[i]+eps+1e-9 {
			t.Fatalf("spiral bound violated at %d: π̂=%v π=%v ε=%v", i, got[i], exact[i], eps)
		}
	}
	if got[0] <= got[1] {
		t.Fatalf("spiral inverts the ranking: π̂_1=%v π̂_2=%v", got[0], got[1])
	}

	// The flawed heuristic: dropping weights < ε/2 errs by > 2ε on p2 and
	// inverts the ranking — the paper's point.
	var kept []Location
	for _, l := range Flatten(pts) {
		if l.W >= eps/2 {
			kept = append(kept, l)
		}
	}
	dropped := ExactSubset(kept, len(pts), q)
	if math.Abs(dropped[1]-exact[1]) <= 2*eps {
		t.Fatalf("drop-light error %v should exceed 2ε", math.Abs(dropped[1]-exact[1]))
	}
	if dropped[0] > dropped[1] {
		t.Fatalf("drop-light should invert the ranking: %v vs %v", dropped[0], dropped[1])
	}
}

func TestVPrMatchesExact(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	pts := randomPts(r, 4, 2, 10, 2)
	box := geom.BBox{MinX: -5, MinY: -5, MaxX: 15, MaxY: 15}
	v := NewVPr(pts, box)
	if v.Faces() < 2 {
		t.Fatalf("faces %d", v.Faces())
	}
	mismatch := 0
	for probe := 0; probe < 300; probe++ {
		q := geom.Pt(r.Float64()*20-5, r.Float64()*20-5)
		got := v.Query(q)
		want := ExactAll(pts, q)
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-9 {
				mismatch++
				break
			}
		}
	}
	// Queries on or within float-tolerance of a bisector may land in the
	// adjacent cell; the measure of such queries is tiny.
	if mismatch > 3 {
		t.Fatalf("V_Pr disagrees with exact on %d/300 queries", mismatch)
	}
}

func TestVPrOutOfBoxFallback(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	pts := randomPts(r, 3, 2, 10, 2)
	v := NewVPr(pts, geom.BBox{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10})
	q := geom.Pt(100, 100)
	got := v.Query(q)
	want := ExactAll(pts, q)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("fallback mismatch: %v vs %v", got, want)
		}
	}
}

func BenchmarkExactSweep(b *testing.B) {
	r := rand.New(rand.NewSource(10))
	pts := randomPts(r, 100, 5, 200, 5)
	q := geom.Pt(100, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ExactAll(pts, q)
	}
}

func BenchmarkSpiralQuery(b *testing.B) {
	r := rand.New(rand.NewSource(11))
	pts := randomPts(r, 1000, 5, 1000, 5)
	sp := NewSpiral(pts)
	var buf []IndexProb
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = sp.EstimatePositiveInto(geom.Pt(500, 500), 0.05, buf)
	}
}

func BenchmarkMonteCarloQuery(b *testing.B) {
	r := rand.New(rand.NewSource(12))
	pts := randomPts(r, 1000, 4, 1000, 5)
	mc := NewMonteCarloDiscrete(pts, 400, r)
	var buf []IndexProb
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = mc.EstimatePositiveInto(geom.Pt(500, 500), buf)
	}
}

func TestSpiralQuadtreeBackendAgrees(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	pts := randomPts(r, 20, 4, 80, 5)
	kd := NewSpiral(pts)
	qt := NewSpiralQuadtree(pts)
	for probe := 0; probe < 50; probe++ {
		q := geom.Pt(r.Float64()*90-5, r.Float64()*90-5)
		a := Scatter(len(pts), kd.EstimatePositiveInto(q, 0.05, nil))
		b := Scatter(len(pts), qt.EstimatePositiveInto(q, 0.05, nil))
		// Both retrieve the m nearest locations; ties at the m-th distance
		// may differ, so compare against the one-sided bound rather than
		// exact equality.
		exact := ExactAll(pts, q)
		for i := range exact {
			for _, est := range [][]float64{a, b} {
				if est[i] > exact[i]+1e-9 || exact[i] > est[i]+0.05+1e-9 {
					t.Fatalf("backend bound violated at %v idx %d", q, i)
				}
			}
		}
	}
}

func TestTopK(t *testing.T) {
	pi := []float64{0.1, 0, 0.5, 0.2, 0.2}
	top := TopK(pi, 3)
	if len(top) != 3 || top[0].I != 2 || top[1].I != 3 || top[2].I != 4 {
		t.Fatalf("topk: %+v", top)
	}
	if got := TopK(pi, 100); len(got) != 4 {
		t.Fatalf("k beyond positives: %+v", got)
	}
	if got := TopK(pi, 0); got != nil {
		t.Fatalf("k=0: %+v", got)
	}
}

func BenchmarkSpiralBackends(b *testing.B) {
	r := rand.New(rand.NewSource(6))
	pts := randomPts(r, 1000, 4, 1000, 4)
	kd := NewSpiral(pts)
	qt := NewSpiralQuadtree(pts)
	q := geom.Pt(500, 500)
	b.Run("kdtree", func(b *testing.B) {
		var buf []IndexProb
		for i := 0; i < b.N; i++ {
			buf = kd.EstimatePositiveInto(q, 0.05, buf)
		}
	})
	b.Run("quadtree", func(b *testing.B) {
		var buf []IndexProb
		for i := 0; i < b.N; i++ {
			buf = qt.EstimatePositiveInto(q, 0.05, buf)
		}
	})
}
