package quantify

import (
	"math"
	"math/rand"
	"testing"

	"pnn/internal/dist"
	"pnn/internal/geom"
)

func TestExpectedDistanceDiscrete(t *testing.T) {
	p := mustDiscrete(t,
		[]geom.Point{{X: 3, Y: 0}, {X: 0, Y: 4}},
		[]float64{0.25, 0.75})
	q := geom.Pt(0, 0)
	want := 0.25*3 + 0.75*4
	if got := ExpectedDistanceDiscrete(p, q); math.Abs(got-want) > 1e-12 {
		t.Fatalf("E[d] = %v want %v", got, want)
	}
}

func TestExpectedDistanceContinuousFarField(t *testing.T) {
	// Far from a small support, E[d] ≈ distance to the center.
	u := dist.UniformDisk{D: geom.Dsk(0, 0, 0.5)}
	q := geom.Pt(100, 0)
	if got := ExpectedDistanceContinuous(u, q, 256); math.Abs(got-100) > 0.01 {
		t.Fatalf("far-field E[d] = %v", got)
	}
}

func TestExpectedDistanceContinuousAtCenter(t *testing.T) {
	// At the center of a uniform disk of radius R, E[d] = 2R/3.
	u := dist.UniformDisk{D: geom.Dsk(0, 0, 3)}
	got := ExpectedDistanceContinuous(u, geom.Pt(0, 0), 512)
	if math.Abs(got-2) > 1e-3 {
		t.Fatalf("center E[d] = %v want 2", got)
	}
}

func TestExpectedNN(t *testing.T) {
	pts := []*dist.Discrete{
		mustDiscrete(t, []geom.Point{{X: 5, Y: 0}}, []float64{1}),
		mustDiscrete(t, []geom.Point{{X: 2, Y: 0}}, []float64{1}),
	}
	i, d := ExpectedNNDiscrete(pts, geom.Pt(0, 0))
	if i != 1 || math.Abs(d-2) > 1e-12 {
		t.Fatalf("expected NN %d at %v", i, d)
	}
	cs := []dist.Continuous{
		dist.UniformDisk{D: geom.Dsk(5, 0, 1)},
		dist.UniformDisk{D: geom.Dsk(2, 0, 1)},
	}
	ci, _ := ExpectedNNContinuous(cs, geom.Pt(0, 0), 128)
	if ci != 1 {
		t.Fatalf("continuous expected NN %d", ci)
	}
}

// Section 1.2's critique: under large uncertainty the expected-distance NN
// can disagree with the most-probable NN. One concentrated point at
// distance 10 vs one widely spread point whose mass is mostly nearer:
// expected distance favors the concentrated point, probability the spread
// one.
func TestExpectedVsProbabilityDivergence(t *testing.T) {
	pts := []*dist.Discrete{
		// Concentrated at distance 10: E[d] = 10.
		mustDiscrete(t, []geom.Point{{X: 10, Y: 0}}, []float64{1}),
		// Spread: 70% at distance 5, 30% at distance 30: E[d] = 12.5,
		// but it is the nearest point with probability 0.7.
		mustDiscrete(t, []geom.Point{{X: 5, Y: 0}, {X: -30, Y: 0}}, []float64{0.7, 0.3}),
	}
	q := geom.Pt(0, 0)
	expIdx, _ := ExpectedNNDiscrete(pts, q)
	if expIdx != 0 {
		t.Fatalf("expected-distance NN should be the concentrated point, got %d", expIdx)
	}
	pi := ExactAll(pts, q)
	if pi[1] <= pi[0] {
		t.Fatalf("probability ranking should favor the spread point: %v", pi)
	}
}

func TestSpiralContinuous(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	// Two symmetric disks: π ≈ 1/2 each at the midpoint.
	cs := []dist.Continuous{
		dist.UniformDisk{D: geom.Dsk(0, 0, 1)},
		dist.UniformDisk{D: geom.Dsk(10, 0, 1)},
	}
	sp := NewSpiralContinuous(cs, 400, r)
	if sp.SamplesPerPoint != 400 {
		t.Fatalf("samples %d", sp.SamplesPerPoint)
	}
	pi := Scatter(len(cs), sp.EstimatePositiveInto(geom.Pt(5, 0.01), 0.01, nil))
	if math.Abs(pi[0]-0.5) > 0.06 || math.Abs(pi[1]-0.5) > 0.06 {
		t.Fatalf("π̂ = %v want ≈ [0.5, 0.5]", pi)
	}
	// A query inside one support: that point dominates.
	pi = Scatter(len(cs), sp.EstimatePositiveInto(geom.Pt(0, 0), 0.01, nil))
	if pi[0] < 0.9 {
		t.Fatalf("π̂_0 = %v want ≈ 1", pi[0])
	}
}
