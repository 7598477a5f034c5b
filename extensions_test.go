package pnn

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"pnn/internal/linf"
	"pnn/internal/quantify"
)

func TestExpectedNNDiscrete(t *testing.T) {
	set, err := NewDiscreteSet([]DiscretePoint{
		{Locations: []Point{{X: 10, Y: 0}}},                                              // concentrated, E[d]=10
		{Locations: []Point{{X: 5, Y: 0}, {X: -30, Y: 0}}, Weights: []float64{0.7, 0.3}}, // E[d]=12.5
	})
	if err != nil {
		t.Fatal(err)
	}
	q := Pt(0, 0)
	ix := mustNew(t, set)
	i, d, err := ix.ExpectedNN(q)
	if err != nil {
		t.Fatal(err)
	}
	if i != 0 || math.Abs(d-10) > 1e-12 {
		t.Fatalf("expected NN %d at %v", i, d)
	}
	if wi, wd := quantify.ExpectedNNDiscrete(set.dists, toGeom(q)); i != wi || d != wd {
		t.Fatalf("facade (%d, %v) vs quantify (%d, %v)", i, d, wi, wd)
	}
	if got := set.ExpectedDistance(q, 1); math.Abs(got-12.5) > 1e-12 {
		t.Fatalf("E[d_1] = %v", got)
	}
	// §1.2's point: probability ranking disagrees with expected distance.
	pi := mustProbabilities(t, ix, q)
	if pi[1] <= pi[0] {
		t.Fatalf("probability should favor the spread point: %v", pi)
	}
}

func TestExpectedNNContinuous(t *testing.T) {
	set, err := NewContinuousSet([]DiskPoint{
		{Support: Disk{Center: Pt(5, 0), R: 1}},
		{Support: Disk{Center: Pt(2, 0), R: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	q := Pt(0, 0)
	i, d, err := mustNew(t, set, WithIntegrationPanels(128)).ExpectedNN(q)
	if err != nil {
		t.Fatal(err)
	}
	if i != 1 {
		t.Fatalf("continuous expected NN %d", i)
	}
	if wi, wd := quantify.ExpectedNNContinuous(set.conts, toGeom(q), 128); i != wi || d != wd {
		t.Fatalf("facade (%d, %v) vs quantify (%d, %v)", i, d, wi, wd)
	}
}

func TestThresholdQuery(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	set, err := NewDiscreteSet(randomDiscretePoints(r, 10, 3))
	if err != nil {
		t.Fatal(err)
	}
	q := Pt(50, 50)
	res, err := mustNew(t, set, WithQuantifier(SpiralSearch(0.05))).Threshold(q, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	exact := quantify.ExactAll(set.dists, toGeom(q))
	for _, i := range res.Certain {
		if exact[i] < 0.25-1e-9 {
			t.Fatalf("certain %d has π=%v", i, exact[i])
		}
	}
	inRes := map[int]bool{}
	for _, i := range res.Certain {
		inRes[i] = true
	}
	for _, i := range res.Possible {
		inRes[i] = true
	}
	for i, p := range exact {
		if p >= 0.25 && !inRes[i] {
			t.Fatalf("missed point %d with π=%v", i, p)
		}
	}
}

func TestContinuousSpiral(t *testing.T) {
	set, err := NewContinuousSet([]DiskPoint{
		{Support: Disk{Center: Pt(0, 0), R: 1}},
		{Support: Disk{Center: Pt(10, 0), R: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	pi := mustProbabilities(t, mustNew(t, set, WithQuantifier(SpiralSearch(0.01)), WithSpiralSamples(500)), Pt(5, 0.01))
	if math.Abs(pi[0]-0.5) > 0.06 || math.Abs(pi[1]-0.5) > 0.06 {
		t.Fatalf("continuous spiral: %v", pi)
	}
}

func TestSquareSetAgainstOracle(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	pts := make([]SquarePoint, 50)
	for i := range pts {
		pts[i] = SquarePoint{Center: Pt(r.Float64()*100, r.Float64()*100), R: 0.5 + r.Float64()*3}
	}
	set, err := NewSquareSet(pts)
	if err != nil {
		t.Fatal(err)
	}
	ix := mustNew(t, set)
	for probe := 0; probe < 200; probe++ {
		q := Pt(r.Float64()*100, r.Float64()*100)
		if !slices.Equal(mustNonzero(t, ix, q), linf.NonzeroSet(set.squares, toGeom(q))) {
			t.Fatalf("L∞ index disagrees at %v", q)
		}
	}
}

func TestSquareSetValidation(t *testing.T) {
	if _, err := NewSquareSet(nil); err == nil {
		t.Fatal("empty set must error")
	}
	if _, err := NewSquareSet([]SquarePoint{{R: -1}}); err == nil {
		t.Fatal("negative radius must error")
	}
	nan, inf := math.NaN(), math.Inf(1)
	for name, p := range map[string]SquarePoint{
		"NaN center": {Center: Pt(0, nan), R: 1},
		"Inf center": {Center: Pt(-inf, 0), R: 1},
		"NaN radius": {R: nan},
		"Inf radius": {R: inf},
	} {
		if _, err := NewSquareSet([]SquarePoint{p}); err == nil {
			t.Errorf("%s: square accepted", name)
		}
	}
}

func TestTopKPublic(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	set, err := NewDiscreteSet(randomDiscretePoints(r, 12, 3))
	if err != nil {
		t.Fatal(err)
	}
	q := Pt(50, 50)
	exactTop, err := mustNew(t, set).TopK(q, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(exactTop) == 0 {
		t.Fatal("no top-k results")
	}
	if want := toIndexProbs(quantify.TopK(quantify.ExactAll(set.dists, toGeom(q)), 3)); !reflect.DeepEqual(exactTop, want) {
		t.Fatalf("top-k %v vs ranked sweep %v", exactTop, want)
	}
	for i := 1; i < len(exactTop); i++ {
		if exactTop[i-1].Prob < exactTop[i].Prob {
			t.Fatal("top-k not sorted")
		}
	}
	spTop, err := mustNew(t, set, WithQuantifier(SpiralSearch(0.01))).TopK(q, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(spTop) == 0 || spTop[0].Index != exactTop[0].Index {
		t.Fatalf("spiral top-1 %v vs exact top-1 %v", spTop, exactTop)
	}
}
