package pnn

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"pnn/internal/baseline"
	"pnn/internal/core"
	"pnn/internal/geom"
	"pnn/internal/linf"
	"pnn/internal/quantify"
)

// The facade must answer identically to the internal reference
// implementations it wires up, on shared fixtures, for every data kind
// and backend.
func TestIndexMatchesLegacyContinuous(t *testing.T) {
	r := rand.New(rand.NewSource(20))
	pts := randomDiskPoints(r, 12)
	set, err := NewContinuousSet(pts)
	if err != nil {
		t.Fatal(err)
	}
	for _, backend := range []NonzeroBackend{BackendIndex, BackendDirect} {
		idx, err := New(set, WithNonzeroBackend(backend))
		if err != nil {
			t.Fatal(err)
		}
		for probe := 0; probe < 100; probe++ {
			q := Pt(r.Float64()*100, r.Float64()*100)
			got, err := idx.Nonzero(q)
			if err != nil {
				t.Fatal(err)
			}
			if want := core.NonzeroSet(set.disks, toGeom(q)); !slices.Equal(got, want) {
				t.Fatalf("backend %v disagrees with Lemma 2.1 at %v: %v vs %v", backend, q, got, want)
			}
		}
	}
	// Exact (integration) probabilities match the quadrature baseline.
	idx, err := New(set, WithIntegrationPanels(256))
	if err != nil {
		t.Fatal(err)
	}
	q := Pt(50, 50)
	got, err := idx.Probabilities(q)
	if err != nil {
		t.Fatal(err)
	}
	want := baseline.IntegrateAll(set.conts, toGeom(q), 256)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("integration mismatch: %v vs %v", got, want)
	}
}

func TestIndexMatchesLegacyDiscrete(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	set, err := NewDiscreteSet(randomDiscretePoints(r, 10, 3))
	if err != nil {
		t.Fatal(err)
	}
	idx, err := New(set)
	if err != nil {
		t.Fatal(err)
	}
	for probe := 0; probe < 100; probe++ {
		q := Pt(r.Float64()*100, r.Float64()*100)
		got, _ := idx.Nonzero(q)
		if !slices.Equal(got, core.NonzeroSetDiscrete(set.derived().sups, toGeom(q))) {
			t.Fatalf("facade nonzero disagrees at %v", q)
		}
		pi, err := idx.Probabilities(q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(pi, quantify.ExactAll(set.dists, toGeom(q))) {
			t.Fatalf("facade probabilities disagree at %v", q)
		}
	}
}

func TestIndexMatchesLegacySquare(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	pts := make([]SquarePoint, 30)
	for i := range pts {
		pts[i] = SquarePoint{Center: Pt(r.Float64()*100, r.Float64()*100), R: 0.5 + r.Float64()*3}
	}
	set, err := NewSquareSet(pts)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := New(set)
	if err != nil {
		t.Fatal(err)
	}
	if idx.Metric() != Linf {
		t.Fatalf("metric %v", idx.Metric())
	}
	for probe := 0; probe < 100; probe++ {
		q := Pt(r.Float64()*100, r.Float64()*100)
		got, _ := idx.Nonzero(q)
		if !slices.Equal(got, linf.NonzeroSet(set.squares, toGeom(q))) {
			t.Fatalf("L∞ facade disagrees at %v", q)
		}
	}
	// No quantifier under L∞.
	if _, err := idx.Probabilities(Pt(0, 0)); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("expected ErrUnsupported, got %v", err)
	}
	if _, _, err := idx.ExpectedNN(Pt(0, 0)); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("expected ErrUnsupported, got %v", err)
	}
}

// Every quantifier on the facade matches its internal structure built
// directly from the same seed.
func TestIndexQuantifiersMatchLegacy(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	set, err := NewDiscreteSet(randomDiscretePoints(r, 8, 3))
	if err != nil {
		t.Fatal(err)
	}
	q := Pt(50, 50)

	mcIdx, err := New(set, WithQuantifier(MonteCarloBudget(1500)), WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	got, _ := mcIdx.Probabilities(q)
	mc := quantify.NewMonteCarloDiscrete(set.dists, 1500, rand.New(rand.NewSource(9)))
	want := quantify.Scatter(set.Len(), mc.EstimatePositiveInto(toGeom(q), nil))
	if !reflect.DeepEqual(got, want) {
		t.Fatal("MonteCarloBudget disagrees with the seeded estimator")
	}

	spIdx, err := New(set, WithQuantifier(SpiralSearch(0.05)))
	if err != nil {
		t.Fatal(err)
	}
	got, _ = spIdx.Probabilities(q)
	want = quantify.Scatter(set.Len(), quantify.NewSpiral(set.dists).EstimatePositiveInto(toGeom(q), 0.05, nil))
	if !reflect.DeepEqual(got, want) {
		t.Fatal("SpiralSearch disagrees with the spiral structure")
	}

	vprIdx, err := New(set, WithQuantifier(VPrDiagram(-10, -10, 110, 110)))
	if err != nil {
		t.Fatal(err)
	}
	got, _ = vprIdx.Probabilities(q)
	want = quantify.NewVPr(set.dists, geom.BBox{MinX: -10, MinY: -10, MaxX: 110, MaxY: 110}).Query(toGeom(q))
	if !reflect.DeepEqual(got, want) {
		t.Fatal("VPrDiagram disagrees with the V_Pr structure")
	}
	// Facade results never alias the diagram's per-face cache: mutating
	// one answer must not corrupt subsequent queries.
	got[0] = -1
	again, _ := vprIdx.Probabilities(q)
	if !reflect.DeepEqual(again, want) {
		t.Fatal("VPr probabilities alias the diagram cache")
	}
}

func TestIndexTopKAndThreshold(t *testing.T) {
	r := rand.New(rand.NewSource(24))
	set, err := NewDiscreteSet(randomDiscretePoints(r, 12, 3))
	if err != nil {
		t.Fatal(err)
	}
	idx, err := New(set)
	if err != nil {
		t.Fatal(err)
	}
	q := Pt(50, 50)
	top, err := idx.TopK(q, 3)
	if err != nil {
		t.Fatal(err)
	}
	exact := quantify.ExactAll(set.dists, toGeom(q))
	if want := toIndexProbs(quantify.TopK(exact, 3)); !reflect.DeepEqual(top, want) {
		t.Fatalf("TopK %v vs ranked sweep %v", top, want)
	}

	// Exact threshold: Certain only, matching direct comparison.
	res, err := idx.Threshold(q, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Possible) != 0 {
		t.Fatal("exact quantifier must not report Possible")
	}
	for _, i := range res.Certain {
		if exact[i] < 0.2 {
			t.Fatalf("certain %d has π=%v", i, exact[i])
		}
	}

	// Spiral threshold: the one-sided classification of the spiral
	// structure's own estimates, π̂ ≥ tau certain and π̂ < tau ≤ π̂ + ε
	// possible.
	spIdx, err := New(set, WithQuantifier(SpiralSearch(0.05)))
	if err != nil {
		t.Fatal(err)
	}
	got, err := spIdx.Threshold(q, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	var want ThresholdResult
	sp := quantify.NewSpiral(set.dists)
	for i, p := range quantify.Scatter(set.Len(), sp.EstimatePositiveInto(toGeom(q), 0.05, nil)) {
		switch {
		case p >= 0.25:
			want.Certain = append(want.Certain, i)
		case p+0.05 >= 0.25:
			want.Possible = append(want.Possible, i)
		}
	}
	if !reflect.DeepEqual(got.Certain, want.Certain) || !reflect.DeepEqual(got.Possible, want.Possible) {
		t.Fatalf("spiral threshold %+v vs structure %+v", got, want)
	}

	// Two-sided Monte Carlo: Certain requires π̂ − ε ≥ tau, so every
	// certain estimate clears tau by the full error band.
	mcEps := 0.1
	mcIdx, err := New(set, WithQuantifier(MonteCarlo(mcEps, 0.05)), WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	tau := 0.2
	mcRes, err := mcIdx.Threshold(q, tau)
	if err != nil {
		t.Fatal(err)
	}
	est, _ := mcIdx.Probabilities(q)
	for _, i := range mcRes.Certain {
		if est[i]-mcEps < tau {
			t.Fatalf("MC certain %d has π̂=%v, needs π̂−ε ≥ %v", i, est[i], tau)
		}
	}
	for _, i := range mcRes.Possible {
		if est[i]-mcEps >= tau || est[i]+mcEps < tau {
			t.Fatalf("MC possible %d has π̂=%v outside the ±ε band around %v", i, est[i], tau)
		}
	}
}

func TestIndexExpectedNN(t *testing.T) {
	set, err := NewDiscreteSet([]DiscretePoint{
		{Locations: []Point{{X: 10, Y: 0}}},
		{Locations: []Point{{X: 5, Y: 0}, {X: -30, Y: 0}}, Weights: []float64{0.7, 0.3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := New(set)
	if err != nil {
		t.Fatal(err)
	}
	i, d, err := idx.ExpectedNN(Pt(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if i != 0 || math.Abs(d-10) > 1e-12 {
		t.Fatalf("expected NN %d at %v", i, d)
	}
}

func TestIndexOptionValidation(t *testing.T) {
	r := rand.New(rand.NewSource(25))
	dset, err := NewDiscreteSet(randomDiscretePoints(r, 4, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(dset, WithMetric(Linf)); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("Linf over discrete points must be rejected, got %v", err)
	}
	cset, err := NewContinuousSet(randomDiskPoints(r, 4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(cset, WithQuantifier(VPrDiagram(0, 0, 1, 1))); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("VPr over continuous points must be rejected, got %v", err)
	}
	sq, err := NewSquareSet([]SquarePoint{{Center: Pt(0, 0), R: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(sq, WithNonzeroBackend(BackendDiagram)); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("diagram backend under L∞ must be rejected, got %v", err)
	}
	if _, err := New(sq, WithQuantifier(MonteCarlo(0.1, 0.05))); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("quantifier under L∞ must be rejected at New, got %v", err)
	}
	if _, err := New(nil); err == nil {
		t.Fatal("nil set must be rejected")
	}
	// Quantifier parameters outside their domain fail at construction,
	// before anything is built.
	nan := math.NaN()
	for _, q := range []Quantifier{
		MonteCarloBudget(-1), MonteCarloBudget(0),
		MonteCarlo(0, 0.1), MonteCarlo(0.1, 0), MonteCarlo(nan, 0.1), MonteCarlo(0.1, nan), MonteCarlo(1, 0.1),
		SpiralSearch(0), SpiralSearch(-1), SpiralSearch(1), SpiralSearch(nan),
	} {
		for _, set := range []UncertainSet{dset, cset} {
			if _, err := New(set, WithQuantifier(q)); !errors.Is(err, ErrInvalidParam) {
				t.Fatalf("New(%T, %+v) err = %v, want ErrInvalidParam", set, q, err)
			}
		}
	}
	// So do non-positive panel and sample counts, which used to fall
	// back to the defaults silently.
	for _, o := range []Option{
		WithIntegrationPanels(0), WithIntegrationPanels(-5),
		WithSpiralSamples(0), WithSpiralSamples(-5),
	} {
		for _, set := range []UncertainSet{dset, cset} {
			if _, err := New(set, o); !errors.Is(err, ErrInvalidParam) {
				t.Fatalf("New(%T) with a non-positive count: err = %v, want ErrInvalidParam", set, err)
			}
		}
	}
	idx, err := New(dset)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := idx.PositiveProbabilities(Pt(1, 1), nan); !errors.Is(err, ErrInvalidParam) {
		t.Fatalf("PositiveProbabilities(eps=NaN) err = %v, want ErrInvalidParam", err)
	}
}

// Indexes built with the same seed answer identically; different seeds
// shift randomized estimates.
func TestIndexSeedDeterminism(t *testing.T) {
	r := rand.New(rand.NewSource(26))
	set, err := NewDiscreteSet(randomDiscretePoints(r, 8, 3))
	if err != nil {
		t.Fatal(err)
	}
	q := Pt(50, 50)
	a, err := New(set, WithQuantifier(MonteCarloBudget(800)), WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(set, WithQuantifier(MonteCarloBudget(800)), WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	pa, _ := a.Probabilities(q)
	pb, _ := b.Probabilities(q)
	if !reflect.DeepEqual(pa, pb) {
		t.Fatal("same seed must reproduce estimates")
	}
	c, err := New(set, WithQuantifier(MonteCarloBudget(800)), WithRandSource(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	pc, _ := c.Probabilities(q)
	if !reflect.DeepEqual(pa, pc) {
		t.Fatal("WithRandSource(NewSource(seed)) must equal WithSeed(seed)")
	}
}

// Square sets answer NN≠0 through QueryBatchOps and no probability
// vector.
func TestQueryBatchSquare(t *testing.T) {
	set, err := NewSquareSet([]SquarePoint{
		{Center: Pt(0, 0), R: 1},
		{Center: Pt(10, 0), R: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := New(set)
	if err != nil {
		t.Fatal(err)
	}
	res, err := idx.QueryBatchOps(context.Background(), []Request{
		{Q: Pt(0, 0), Op: OpNonzero},
		{Q: Pt(0, 0), Op: OpProbabilities},
		{Q: Pt(5, 0), Op: OpNonzero},
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res[1].Probabilities != nil || !errors.Is(res[1].Err, ErrUnsupported) {
		t.Fatalf("square batch carried probabilities %v, err %v", res[1].Probabilities, res[1].Err)
	}
	if !slices.Equal(res[0].Nonzero, []int{0}) || !slices.Equal(res[2].Nonzero, []int{0, 1}) {
		t.Fatalf("nonzero = %v, %v", res[0].Nonzero, res[2].Nonzero)
	}
}
