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
	want := quantify.NewMonteCarloDiscrete(set.dists, 1500, rand.New(rand.NewSource(9))).Estimate(toGeom(q))
	if !reflect.DeepEqual(got, want) {
		t.Fatal("MonteCarloBudget disagrees with the seeded estimator")
	}

	spIdx, err := New(set, WithQuantifier(SpiralSearch(0.05)))
	if err != nil {
		t.Fatal(err)
	}
	got, _ = spIdx.Probabilities(q)
	want = quantify.NewSpiral(set.dists).Estimate(toGeom(q), 0.05)
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

	// Spiral threshold: one-sided classification matches the spiral
	// structure's own.
	spIdx, err := New(set, WithQuantifier(SpiralSearch(0.05)))
	if err != nil {
		t.Fatal(err)
	}
	got, err := spIdx.Threshold(q, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	want := quantify.NewSpiral(set.dists).Threshold(toGeom(q), 0.25, 0.05)
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

func TestQueryBatchDeterministicAcrossWorkers(t *testing.T) {
	r := rand.New(rand.NewSource(27))
	set, err := NewDiscreteSet(randomDiscretePoints(r, 10, 3))
	if err != nil {
		t.Fatal(err)
	}
	idx, err := New(set, WithQuantifier(MonteCarloBudget(500)), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	qs := make([]Point, 64)
	for i := range qs {
		qs[i] = Pt(r.Float64()*100, r.Float64()*100)
	}
	ref, err := idx.QueryBatch(context.Background(), qs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref) != len(qs) {
		t.Fatalf("got %d results", len(ref))
	}
	for _, workers := range []int{2, 8, 0} {
		got, err := idx.QueryBatch(context.Background(), qs, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("workers=%d results differ from workers=1", workers)
		}
	}
	// Results match single-query answers in input order.
	for i, q := range qs[:8] {
		nz, _ := idx.Nonzero(q)
		if !slices.Equal(ref[i].Nonzero, nz) {
			t.Fatalf("batch result %d out of order", i)
		}
	}
}

func TestQueryBatchCancellation(t *testing.T) {
	r := rand.New(rand.NewSource(28))
	set, err := NewDiscreteSet(randomDiscretePoints(r, 10, 3))
	if err != nil {
		t.Fatal(err)
	}
	idx, err := New(set)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	qs := make([]Point, 1000)
	for i := range qs {
		qs[i] = Pt(r.Float64()*100, r.Float64()*100)
	}
	if _, err := idx.QueryBatch(ctx, qs, 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled batch must return context.Canceled, got %v", err)
	}
	// Empty input is a no-op even without cancellation.
	res, err := idx.QueryBatch(context.Background(), nil, 4)
	if err != nil || res != nil {
		t.Fatalf("empty batch: %v %v", res, err)
	}
}

// Square sets flow through QueryBatch with nil probability vectors.
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
	res, err := idx.QueryBatch(context.Background(), []Point{{X: 0, Y: 0}, {X: 5, Y: 0}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Probabilities != nil {
		t.Fatal("square batch must not carry probabilities")
	}
	if !slices.Equal(res[0].Nonzero, []int{0}) {
		t.Fatalf("res[0] = %v", res[0].Nonzero)
	}
}
