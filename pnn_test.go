package pnn

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"pnn/internal/baseline"
	"pnn/internal/core"
	"pnn/internal/quantify"
)

func randomDiskPoints(r *rand.Rand, n int) []DiskPoint {
	pts := make([]DiskPoint, n)
	for i := range pts {
		pts[i] = DiskPoint{
			Support: Disk{Center: Pt(r.Float64()*100, r.Float64()*100), R: 0.5 + r.Float64()*4},
		}
	}
	return pts
}

func randomDiscretePoints(r *rand.Rand, n, k int) []DiscretePoint {
	pts := make([]DiscretePoint, n)
	for i := range pts {
		cx, cy := r.Float64()*100, r.Float64()*100
		locs := make([]Point, k)
		w := make([]float64, k)
		sum := 0.0
		for t := range locs {
			locs[t] = Pt(cx+r.Float64()*6-3, cy+r.Float64()*6-3)
			w[t] = 0.5 + r.Float64()
			sum += w[t]
		}
		for t := range w {
			w[t] /= sum
		}
		pts[i] = DiscretePoint{Locations: locs, Weights: w}
	}
	return pts
}

func TestNewSetValidation(t *testing.T) {
	if _, err := NewContinuousSet(nil); err == nil {
		t.Fatal("empty continuous set must error")
	}
	if _, err := NewContinuousSet([]DiskPoint{{Support: Disk{R: -1}}}); err == nil {
		t.Fatal("negative radius must error")
	}
	nan, inf := math.NaN(), math.Inf(1)
	for name, p := range map[string]DiskPoint{
		"NaN center": {Support: Disk{Center: Pt(nan, 0), R: 1}},
		"Inf center": {Support: Disk{Center: Pt(0, -inf), R: 1}},
		"NaN radius": {Support: Disk{R: nan}},
		"Inf radius": {Support: Disk{R: inf}},
		"NaN sigma":  {Support: Disk{R: 1}, Density: TruncatedGaussian, Sigma: nan},
		"Inf sigma":  {Support: Disk{R: 1}, Density: TruncatedGaussian, Sigma: inf},
	} {
		if _, err := NewContinuousSet([]DiskPoint{p}); err == nil {
			t.Errorf("%s: continuous point accepted", name)
		}
	}
	if _, err := NewDiscreteSet(nil); err == nil {
		t.Fatal("empty discrete set must error")
	}
	if _, err := NewDiscreteSet([]DiscretePoint{{
		Locations: []Point{{0, 0}},
		Weights:   []float64{0.4},
	}}); err == nil {
		t.Fatal("weights not summing to 1 must error")
	}
	for name, p := range map[string]DiscretePoint{
		"no locations": {},
		"NaN location": {Locations: []Point{{nan, 0}}},
		"Inf location": {Locations: []Point{{0, 0}, {0, inf}}, Weights: []float64{0.5, 0.5}},
		"NaN weight":   {Locations: []Point{{0, 0}, {1, 1}}, Weights: []float64{nan, 1}},
		"Inf weight":   {Locations: []Point{{0, 0}, {1, 1}}, Weights: []float64{inf, -inf}},
	} {
		if _, err := NewDiscreteSet([]DiscretePoint{p}); err == nil {
			t.Errorf("%s: discrete point accepted", name)
		}
	}
	// nil weights mean uniform.
	s, err := NewDiscreteSet([]DiscretePoint{{Locations: []Point{{0, 0}, {1, 1}}}})
	if err != nil {
		t.Fatal(err)
	}
	if s.K() != 2 {
		t.Fatalf("K = %d", s.K())
	}
}

// Every NN≠0 backend over disks answers like the brute Lemma 2.1 oracle:
// the two-stage index exactly, the diagram up to its flattening
// tolerance.
func TestPublicContinuousPipeline(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	set, err := NewContinuousSet(randomDiskPoints(r, 10))
	if err != nil {
		t.Fatal(err)
	}
	ix := mustNew(t, set)
	diag := mustNew(t, set, WithNonzeroBackend(BackendDiagram))
	diagMiss := 0
	for probe := 0; probe < 200; probe++ {
		q := Pt(r.Float64()*100, r.Float64()*100)
		brute := baseline.NonzeroBrute(set.disks, toGeom(q))
		if got := mustNonzero(t, ix, q); !slices.Equal(got, brute) {
			t.Fatalf("index disagrees with brute at %v: %v vs %v", q, got, brute)
		}
		if !slices.Equal(mustNonzero(t, diag, q), brute) {
			diagMiss++
		}
	}
	if diagMiss > 10 {
		t.Fatalf("diagram missed %d/200", diagMiss)
	}
}

func TestPublicDiscretePipeline(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	set, err := NewDiscreteSet(randomDiscretePoints(r, 8, 3))
	if err != nil {
		t.Fatal(err)
	}
	ix := mustNew(t, set)
	for probe := 0; probe < 100; probe++ {
		q := Pt(r.Float64()*100, r.Float64()*100)
		if !slices.Equal(mustNonzero(t, ix, q), baseline.NonzeroBruteDiscrete(set.derived().sups, toGeom(q))) {
			t.Fatalf("discrete index disagrees at %v", q)
		}
	}
	// Probabilities: exact vs spiral vs Monte Carlo.
	q := Pt(50, 50)
	exact := quantify.ExactAll(set.dists, toGeom(q))
	sum := 0.0
	for _, p := range exact {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("Σπ = %v", sum)
	}
	if got := mustProbabilities(t, ix, q); !slices.Equal(got, exact) {
		t.Fatalf("exact facade %v vs sweep %v", got, exact)
	}
	eps := 0.05
	approx := mustProbabilities(t, mustNew(t, set, WithQuantifier(SpiralSearch(eps))), q)
	for i := range exact {
		if approx[i] > exact[i]+1e-9 || exact[i] > approx[i]+eps+1e-9 {
			t.Fatalf("spiral bound violated at %d: %v vs %v", i, approx[i], exact[i])
		}
	}
	est := mustProbabilities(t, mustNew(t, set, WithQuantifier(MonteCarloBudget(3000)), WithSeed(2)), q)
	for i := range exact {
		if math.Abs(est[i]-exact[i]) > 0.05 {
			t.Fatalf("MC estimate off at %d: %v vs %v", i, est[i], exact[i])
		}
	}
}

func TestPublicVPr(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	set, err := NewDiscreteSet(randomDiscretePoints(r, 4, 2))
	if err != nil {
		t.Fatal(err)
	}
	v := mustNew(t, set, WithQuantifier(VPrDiagram(-10, -10, 110, 110)))
	mismatches := 0
	for probe := 0; probe < 100; probe++ {
		q := Pt(r.Float64()*100, r.Float64()*100)
		got := mustProbabilities(t, v, q)
		want := quantify.ExactAll(set.dists, toGeom(q))
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-9 {
				mismatches++
				break
			}
		}
	}
	if mismatches > 2 {
		t.Fatalf("V_Pr mismatches %d/100", mismatches)
	}
}

func TestPublicDiscreteDiagram(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	set, err := NewDiscreteSet(randomDiscretePoints(r, 5, 2))
	if err != nil {
		t.Fatal(err)
	}
	diag := mustNew(t, set, WithNonzeroBackend(BackendDiagram))
	errors := 0
	for probe := 0; probe < 100; probe++ {
		q := Pt(r.Float64()*100, r.Float64()*100)
		if !slices.Equal(mustNonzero(t, diag, q), core.NonzeroSetDiscrete(set.derived().sups, toGeom(q))) {
			errors++
		}
	}
	if errors > 3 {
		t.Fatalf("diagram disagrees on %d/100 queries", errors)
	}
}

func TestGaussianDiskPoint(t *testing.T) {
	set, err := NewContinuousSet([]DiskPoint{
		{Support: Disk{Center: Pt(0, 0), R: 2}, Density: TruncatedGaussian, Sigma: 1},
		{Support: Disk{Center: Pt(10, 0), R: 2}, Density: TruncatedGaussian}, // default sigma
	})
	if err != nil {
		t.Fatal(err)
	}
	pi := mustProbabilities(t, mustNew(t, set, WithIntegrationPanels(256)), Pt(5, 0))
	if math.Abs(pi[0]+pi[1]-1) > 1e-2 {
		t.Fatalf("Σπ = %v", pi[0]+pi[1])
	}
	if math.Abs(pi[0]-0.5) > 0.02 {
		t.Fatalf("symmetric Gaussians: π_0 = %v", pi[0])
	}
}

// The spiral's retrieval size m(ρ, ε) is covered by
// quantify.TestSpiralRetrievalSize; this checks the public spread ρ.
func TestSpreadAndRetrievalSize(t *testing.T) {
	set, err := NewDiscreteSet([]DiscretePoint{
		{Locations: []Point{{0, 0}, {1, 0}}, Weights: []float64{0.2, 0.8}},
		{Locations: []Point{{5, 5}, {6, 5}}, Weights: []float64{0.5, 0.5}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := set.Spread(); math.Abs(got-4) > 1e-12 {
		t.Fatalf("spread %v", got)
	}
}

// mustNew builds an Index or fails the test.
func mustNew(t *testing.T, set UncertainSet, opts ...Option) *Index {
	t.Helper()
	ix, err := New(set, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func mustNonzero(t *testing.T, ix *Index, q Point) []int {
	t.Helper()
	nz, err := ix.Nonzero(q)
	if err != nil {
		t.Fatal(err)
	}
	return nz
}

func mustProbabilities(t *testing.T, ix *Index, q Point) []float64 {
	t.Helper()
	pi, err := ix.Probabilities(q)
	if err != nil {
		t.Fatal(err)
	}
	return pi
}
