package dist

import (
	"math"
	"math/rand"
	"testing"

	"pnn/internal/geom"
)

func TestNewDiscreteValidation(t *testing.T) {
	if _, err := NewDiscrete(nil, nil); err == nil {
		t.Fatal("empty locations must error")
	}
	if _, err := NewDiscrete([]geom.Point{{X: 0, Y: 0}}, []float64{0.5, 0.5}); err == nil {
		t.Fatal("length mismatch must error")
	}
	if _, err := NewDiscrete([]geom.Point{{}, {X: 1}}, []float64{1.5, -0.5}); err == nil {
		t.Fatal("negative weight must error")
	}
	if _, err := NewDiscrete([]geom.Point{{}, {X: 1}}, []float64{0.3, 0.3}); err == nil {
		t.Fatal("weights not summing to 1 must error")
	}
	if _, err := NewDiscrete([]geom.Point{{}, {X: 1}}, []float64{math.NaN(), 1}); err == nil {
		t.Fatal("NaN weight must error")
	}
	d, err := NewDiscrete([]geom.Point{{}, {X: 1}}, []float64{0.25, 0.75})
	if err != nil {
		t.Fatal(err)
	}
	if d.K() != 2 {
		t.Fatalf("K = %d", d.K())
	}
}

func TestUniformDiscrete(t *testing.T) {
	d := UniformDiscrete([]geom.Point{{}, {X: 1}, {X: 2}, {X: 3}})
	for _, w := range d.W {
		if math.Abs(w-0.25) > 1e-15 {
			t.Fatalf("weights %v", d.W)
		}
	}
}

func TestDiscreteSampleFrequencies(t *testing.T) {
	d, err := NewDiscrete(
		[]geom.Point{{}, {X: 1}, {X: 2}},
		[]float64{0.2, 0.5, 0.3},
	)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	counts := make([]int, 3)
	const n = 200000
	for i := 0; i < n; i++ {
		counts[d.Sample(r)]++
	}
	for t2, want := range d.W {
		got := float64(counts[t2]) / n
		if math.Abs(got-want) > 0.01 {
			t.Fatalf("location %d: freq %v want %v", t2, got, want)
		}
	}
}

func TestDiscreteSampleSkipsZeroWeights(t *testing.T) {
	d, err := NewDiscrete(
		[]geom.Point{{}, {X: 1}, {X: 2}},
		[]float64{0.5, 0, 0.5},
	)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 10000; i++ {
		if d.Sample(r) == 1 {
			t.Fatal("zero-weight location sampled")
		}
	}
}

func TestUniformDiskCDFProperties(t *testing.T) {
	u := UniformDisk{D: geom.Dsk(0, 0, 5)}
	q := geom.Pt(6, 8) // d = 10, support [5, 15]
	if got := u.DistCDF(q, 5); got != 0 {
		t.Fatalf("cdf at min dist: %v", got)
	}
	if got := u.DistCDF(q, 15); got != 1 {
		t.Fatalf("cdf at max dist: %v", got)
	}
	// Monotone.
	prev := -1.0
	for r := 4.0; r <= 16; r += 0.25 {
		c := u.DistCDF(q, r)
		if c < prev-1e-12 {
			t.Fatalf("cdf not monotone at r=%v", r)
		}
		prev = c
	}
}

// The pdf must be the derivative of the cdf (both are closed forms
// derived independently).
func TestUniformDiskPDFMatchesCDFDerivative(t *testing.T) {
	for _, tc := range []struct {
		d geom.Disk
		q geom.Point
	}{
		{geom.Dsk(0, 0, 5), geom.Pt(6, 8)}, // q outside
		{geom.Dsk(0, 0, 5), geom.Pt(1, 1)}, // q inside
		{geom.Dsk(0, 0, 5), geom.Pt(0, 0)}, // q at center
	} {
		u := UniformDisk{D: tc.d}
		lo := tc.d.MinDist(tc.q)
		hi := tc.d.MaxDist(tc.q)
		const h = 1e-5
		for i := 1; i < 40; i++ {
			r := lo + (hi-lo)*float64(i)/40
			numeric := (u.DistCDF(tc.q, r+h) - u.DistCDF(tc.q, r-h)) / (2 * h)
			if math.Abs(numeric-u.DistPDF(tc.q, r)) > 1e-4 {
				t.Fatalf("q=%v r=%v: pdf %v vs d(cdf)/dr %v",
					tc.q, r, u.DistPDF(tc.q, r), numeric)
			}
		}
	}
}

func TestUniformDiskSampleAgainstCDF(t *testing.T) {
	u := UniformDisk{D: geom.Dsk(2, -1, 3)}
	q := geom.Pt(5, 2)
	r := rand.New(rand.NewSource(3))
	const n = 100000
	for _, radius := range []float64{2, 3.5, 5} {
		count := 0
		for i := 0; i < n; i++ {
			if u.Sample(r).Dist(q) <= radius {
				count++
			}
		}
		got := float64(count) / n
		want := u.DistCDF(q, radius)
		if math.Abs(got-want) > 0.01 {
			t.Fatalf("radius %v: empirical %v cdf %v", radius, got, want)
		}
	}
}

func TestTruncatedGaussianCDFProperties(t *testing.T) {
	g := TruncatedGaussian{D: geom.Dsk(0, 0, 2), Sigma: 1}
	q := geom.Pt(5, 0)
	if got := g.DistCDF(q, 3); got != 0 {
		t.Fatalf("cdf below support: %v", got)
	}
	if got := g.DistCDF(q, 7); got != 1 {
		t.Fatalf("cdf above support: %v", got)
	}
	mid := g.DistCDF(q, 5)
	if mid <= 0.4 || mid >= 1 {
		// Mass concentrates near the center at distance 5.
		t.Fatalf("cdf at center distance: %v", mid)
	}
}

// The pdf and cdf are computed by two independent quadratures (polar
// around q and polar around the disk center); ∫ pdf must reproduce the
// cdf.
func TestTruncatedGaussianPDFIntegratesToCDF(t *testing.T) {
	g := TruncatedGaussian{D: geom.Dsk(0, 0, 2), Sigma: 0.8}
	for _, q := range []geom.Point{geom.Pt(5, 0), geom.Pt(0.5, 0.5), geom.Pt(0, 0)} {
		lo := g.D.MinDist(q)
		hi := g.D.MaxDist(q)
		for i := 1; i <= 10; i++ {
			r := lo + (hi-lo)*float64(i)/10
			integ := simpson(func(x float64) float64 { return g.DistPDF(q, x) }, lo, r, 400)
			if math.Abs(integ-g.DistCDF(q, r)) > 1e-3 {
				t.Fatalf("q=%v r=%v: ∫pdf %v vs cdf %v",
					q, r, integ, g.DistCDF(q, r))
			}
		}
	}
}

// A disk far smaller than its distance to the query keeps a distance pdf
// that integrates to 1 and a cdf of 1/2 at the center's distance, down to
// radii whose R² is below float64 precision relative to d².
func TestTinyDiskDistributions(t *testing.T) {
	q := geom.Pt(0, 0)
	for _, R := range []float64{1e-6, 1e-9, 1e-12} {
		for _, c := range []Continuous{
			UniformDisk{D: geom.Dsk(1, 0, R)},
			TruncatedGaussian{D: geom.Dsk(1, 0, R), Sigma: R / 2},
		} {
			lo, hi := c.SupportDisk().MinDist(q), c.SupportDisk().MaxDist(q)
			if m := simpson(func(r float64) float64 { return c.DistPDF(q, r) }, lo, hi, 512); math.Abs(m-1) > 1e-3 {
				t.Fatalf("%T R=%g: ∫pdf = %v", c, R, m)
			}
			if g := c.DistCDF(q, 1); math.Abs(g-0.5) > 1e-3 {
				t.Fatalf("%T R=%g: cdf at the center distance = %v", c, R, g)
			}
		}
	}
}

func TestTruncatedGaussianSampleAgainstCDF(t *testing.T) {
	g := TruncatedGaussian{D: geom.Dsk(1, 1, 2), Sigma: 1}
	q := geom.Pt(3, 1)
	r := rand.New(rand.NewSource(4))
	const n = 100000
	for _, radius := range []float64{1.5, 2.5, 3.5} {
		count := 0
		for i := 0; i < n; i++ {
			p := g.Sample(r)
			if p.Dist(g.D.C) > g.D.R+1e-9 {
				t.Fatal("sample outside the truncation disk")
			}
			if p.Dist(q) <= radius {
				count++
			}
		}
		got := float64(count) / n
		want := g.DistCDF(q, radius)
		if math.Abs(got-want) > 0.01 {
			t.Fatalf("radius %v: empirical %v cdf %v", radius, got, want)
		}
	}
}

func TestDiscretizeContinuous(t *testing.T) {
	u := UniformDisk{D: geom.Dsk(0, 0, 1)}
	r := rand.New(rand.NewSource(5))
	d := DiscretizeContinuous(u, 64, r)
	if d.K() != 64 {
		t.Fatalf("k = %d", d.K())
	}
	sum := 0.0
	for _, w := range d.W {
		sum += w
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("weights sum to %v", sum)
	}
	for _, l := range d.Locs {
		if l.Norm() > 1+1e-12 {
			t.Fatalf("sample %v outside support", l)
		}
	}
}
