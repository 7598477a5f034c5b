package geom

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

func almost(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Fatalf("%s: got %v want %v (tol %v)", msg, got, want, tol)
	}
}

func TestPointOps(t *testing.T) {
	p := Pt(3, 4)
	q := Pt(1, -2)
	if got := p.Add(q); got != Pt(4, 2) {
		t.Fatalf("Add: %v", got)
	}
	if got := p.Sub(q); got != Pt(2, 6) {
		t.Fatalf("Sub: %v", got)
	}
	almost(t, p.Norm(), 5, 1e-15, "Norm")
	almost(t, p.Dot(q), 3-8, 1e-15, "Dot")
	almost(t, p.Cross(q), -6-4, 1e-15, "Cross")
	almost(t, p.Dist(q), math.Hypot(2, 6), 1e-15, "Dist")
	almost(t, p.Dist2(q), 40, 1e-12, "Dist2")
}

func TestRotatePreservesNorm(t *testing.T) {
	f := func(x, y, a float64) bool {
		if math.IsNaN(x) || math.IsNaN(y) || math.IsNaN(a) ||
			math.IsInf(x, 0) || math.IsInf(y, 0) || math.IsInf(a, 0) {
			return true
		}
		x = math.Mod(x, 1e6)
		y = math.Mod(y, 1e6)
		a = math.Mod(a, 2*math.Pi)
		p := Pt(x, y)
		r := p.Rotate(a)
		return NearlyEqual(p.Norm(), r.Norm(), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDirAndAngle(t *testing.T) {
	for _, th := range []float64{0, 0.5, 1.2, math.Pi - 0.01, -2.8} {
		d := Dir(th)
		almost(t, d.Norm(), 1, 1e-15, "Dir norm")
		almost(t, d.Angle(), th, 1e-12, "Angle roundtrip")
	}
}

func TestPerpIsOrthogonal(t *testing.T) {
	p := Pt(2.5, -7)
	if d := p.Dot(p.Perp()); d != 0 {
		t.Fatalf("Perp not orthogonal: %v", d)
	}
}

func TestSegmentYAtX(t *testing.T) {
	s := Seg(Pt(0, 0), Pt(2, 4))
	y, ok := s.YAtX(1)
	if !ok {
		t.Fatal("YAtX should be defined at x=1")
	}
	almost(t, y, 2, 1e-15, "YAtX")
	if _, ok := s.YAtX(3); ok {
		t.Fatal("YAtX out of range should report !ok")
	}
}

func TestSegmentIntersect(t *testing.T) {
	a := Seg(Pt(0, 0), Pt(2, 2))
	b := Seg(Pt(0, 2), Pt(2, 0))
	p, ok := a.Intersect(b)
	if !ok {
		t.Fatal("expected intersection")
	}
	if !p.Eq(Pt(1, 1), 1e-12) {
		t.Fatalf("wrong intersection %v", p)
	}
	c := Seg(Pt(0, 3), Pt(2, 5))
	if _, ok := a.Intersect(c); ok {
		t.Fatal("parallel segments should not intersect")
	}
	d := Seg(Pt(3, 0), Pt(4, -5))
	if _, ok := a.Intersect(d); ok {
		t.Fatal("disjoint segments should not intersect")
	}
}

func TestSegmentDistToPoint(t *testing.T) {
	s := Seg(Pt(0, 0), Pt(10, 0))
	almost(t, s.DistToPoint(Pt(5, 3)), 3, 1e-15, "above middle")
	almost(t, s.DistToPoint(Pt(-4, 3)), 5, 1e-15, "before start")
	almost(t, s.DistToPoint(Pt(13, 4)), 5, 1e-15, "after end")
}

func TestOrient(t *testing.T) {
	a, b := Pt(0, 0), Pt(1, 0)
	if Orient(a, b, Pt(0, 1)) != 1 {
		t.Fatal("left turn should be +1")
	}
	if Orient(a, b, Pt(0, -1)) != -1 {
		t.Fatal("right turn should be -1")
	}
	if Orient(a, b, Pt(2, 0)) != 0 {
		t.Fatal("collinear should be 0")
	}
}

func TestOrientAntisymmetry(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		a := Pt(r.Float64()*100, r.Float64()*100)
		b := Pt(r.Float64()*100, r.Float64()*100)
		c := Pt(r.Float64()*100, r.Float64()*100)
		if Orient(a, b, c) != -Orient(b, a, c) {
			t.Fatalf("antisymmetry violated for %v %v %v", a, b, c)
		}
	}
}

func TestInCircle(t *testing.T) {
	// Unit circle through (1,0), (0,1), (-1,0) counterclockwise.
	a, b, c := Pt(1, 0), Pt(0, 1), Pt(-1, 0)
	if InCircle(a, b, c, Pt(0, 0)) != 1 {
		t.Fatal("origin should be inside")
	}
	if InCircle(a, b, c, Pt(2, 2)) != -1 {
		t.Fatal("(2,2) should be outside")
	}
	if InCircle(a, b, c, Pt(0, -1)) != 0 {
		t.Fatal("(0,-1) is on the circle")
	}
}

func TestCircumDisk(t *testing.T) {
	d, ok := CircumDisk(Pt(1, 0), Pt(0, 1), Pt(-1, 0))
	if !ok {
		t.Fatal("circumdisk should exist")
	}
	if !d.C.Eq(Pt(0, 0), 1e-12) {
		t.Fatalf("center %v", d.C)
	}
	almost(t, d.R, 1, 1e-12, "radius")
	if _, ok := CircumDisk(Pt(0, 0), Pt(1, 1), Pt(2, 2)); ok {
		t.Fatal("collinear points have no circumdisk")
	}
}

func TestCircumDiskProperty(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		a := Pt(r.Float64()*10, r.Float64()*10)
		b := Pt(r.Float64()*10, r.Float64()*10)
		c := Pt(r.Float64()*10, r.Float64()*10)
		d, ok := CircumDisk(a, b, c)
		if !ok {
			continue
		}
		for _, p := range []Point{a, b, c} {
			if !NearlyEqual(d.C.Dist(p), d.R, 1e-9) {
				t.Fatalf("point %v not on circumcircle %v", p, d)
			}
		}
	}
}

func TestDiskMinMaxDist(t *testing.T) {
	d := Dsk(0, 0, 5)
	q := Pt(6, 8) // distance 10 from center
	almost(t, d.MinDist(q), 5, 1e-12, "MinDist outside")
	almost(t, d.MaxDist(q), 15, 1e-12, "MaxDist")
	almost(t, d.MinDist(Pt(1, 1)), 0, 0, "MinDist inside is 0")
}

func TestDiskContainment(t *testing.T) {
	big := Dsk(0, 0, 10)
	small := Dsk(3, 0, 2)
	if !big.ContainsDisk(small) {
		t.Fatal("big should contain small")
	}
	if small.ContainsDisk(big) {
		t.Fatal("small cannot contain big")
	}
	if !big.Intersects(Dsk(12, 0, 3)) {
		t.Fatal("touching disks intersect")
	}
	if big.Intersects(Dsk(20, 0, 3)) {
		t.Fatal("far disks do not intersect")
	}
}

func TestCircleIntersection(t *testing.T) {
	a := Dsk(0, 0, 5)
	b := Dsk(8, 0, 5)
	pts := a.CircleIntersection(b)
	if len(pts) != 2 {
		t.Fatalf("want 2 intersections, got %d", len(pts))
	}
	for _, p := range pts {
		almost(t, a.C.Dist(p), 5, 1e-9, "on circle a")
		almost(t, b.C.Dist(p), 5, 1e-9, "on circle b")
	}
	if pts := a.CircleIntersection(Dsk(20, 0, 3)); len(pts) != 0 {
		t.Fatal("disjoint circles should not intersect")
	}
	// Internal tangency.
	pts = a.CircleIntersection(Dsk(2, 0, 3))
	if len(pts) != 1 {
		t.Fatalf("tangent circles: want 1 point, got %d", len(pts))
	}
}

func TestLensArea(t *testing.T) {
	a := Dsk(0, 0, 1)
	// Identical disks: lens is the full disk.
	almost(t, LensArea(a, a), math.Pi, 1e-12, "identical")
	// Disjoint.
	almost(t, LensArea(a, Dsk(5, 0, 1)), 0, 0, "disjoint")
	// Contained.
	almost(t, LensArea(Dsk(0, 0, 3), a), math.Pi, 1e-12, "contained")
	// Half-overlap symmetry: area must be monotone in center distance.
	prev := math.Pi
	for d := 0.1; d < 2.0; d += 0.1 {
		ar := LensArea(a, Dsk(d, 0, 1))
		if ar > prev+1e-12 {
			t.Fatalf("lens area not monotone at d=%v", d)
		}
		prev = ar
	}
}

func TestLensAreaAgainstMonteCarlo(t *testing.T) {
	a := Dsk(0, 0, 2)
	b := Dsk(1.5, 1, 1.2)
	want := LensArea(a, b)
	r := rand.New(rand.NewSource(42))
	const n = 400000
	in := 0
	for i := 0; i < n; i++ {
		// Sample uniformly in b's bounding box.
		p := Pt(b.C.X+(r.Float64()*2-1)*b.R, b.C.Y+(r.Float64()*2-1)*b.R)
		if b.Contains(p) && a.Contains(p) {
			in++
		}
	}
	got := float64(in) / n * 4 * b.R * b.R
	almost(t, got, want, 0.05, "lens area vs Monte Carlo")
}

// TriangleAngle keeps full precision on needle-thin triangles, where the
// law of cosines cancels: 1 − cos γ = 2·sin²(γ/2) must match the exact
// (c² − (a − b)²)/(2ab) of its float64 inputs.
func TestTriangleAngle(t *testing.T) {
	almost(t, TriangleAngle(1, 1, 1), math.Pi/3, 1e-15, "equilateral")
	almost(t, TriangleAngle(3, 4, 5), math.Pi/2, 1e-15, "right angle")
	almost(t, TriangleAngle(4, 5, 3), math.Asin(3.0/5), 1e-15, "3-4-5 acute")
	almost(t, TriangleAngle(1, 3, 1.5), 0, 0, "c below |a−b|")
	almost(t, TriangleAngle(1, 2, 3.5), math.Pi, 0, "c above a+b")
	almost(t, TriangleAngle(1, 2, 3), math.Pi, 0, "degenerate c = a+b")
	r := rand.New(rand.NewSource(11))
	exact := func(a, b, c float64) float64 {
		f := func(x float64) *big.Float { return new(big.Float).SetPrec(256).SetFloat64(x) }
		ab := new(big.Float).Sub(f(a), f(b))
		num := new(big.Float).Sub(new(big.Float).Mul(f(c), f(c)), new(big.Float).Mul(ab, ab))
		den := new(big.Float).Mul(f(2), new(big.Float).Mul(f(a), f(b)))
		v, _ := new(big.Float).Quo(num, den).Float64()
		return v
	}
	for i := 0; i < 2000; i++ {
		a := 0.5 + 2*r.Float64()
		c := a * math.Pow(10, -3-12*r.Float64())
		b := a + c*(1.8*r.Float64()-0.9)
		s := math.Sin(TriangleAngle(a, b, c) / 2)
		want := exact(a, b, c)
		if got := 2 * s * s; math.Abs(got-want) > 1e-12*want {
			t.Fatalf("a=%v b=%v c=%v: 1−cos γ = %v, exact %v", a, b, c, got, want)
		}
	}
}

// A circle through the center of a tiny disk cuts it in half, up to the
// circle's curvature (a fraction of order R), down to radii whose R² is
// below float64 precision.
func TestLensAreaTinyDisk(t *testing.T) {
	// Powers of two, so 1 − R/2 below is exact.
	for _, e := range []int{-10, -20, -30, -40, -46} {
		R := math.Ldexp(1, e)
		tiny := Dsk(1, 0, R)
		frac := LensArea(tiny, Dsk(0, 0, 1)) / tiny.Area()
		almost(t, frac, 0.5, R, "circle through the center")
		almost(t, LensArea(Dsk(0, 0, 1), tiny)/tiny.Area(), frac, 1e-12, "symmetric")
		inner := LensArea(tiny, Dsk(0, 0, 1-R/2)) / tiny.Area()
		// Chord at R/2 from the center: segment fraction (θ − sin θ)/2π
		// with θ = 2π/3.
		almost(t, inner, (2*math.Pi/3-math.Sqrt(3)/2)/(2*math.Pi), 2*R, "chord at R/2")
	}
}

func TestConvexHull(t *testing.T) {
	pts := []Point{{0, 0}, {4, 0}, {4, 4}, {0, 4}, {2, 2}, {1, 1}, {2, 0}}
	h := ConvexHull(pts)
	if len(h) != 4 {
		t.Fatalf("square hull should have 4 vertices, got %d: %v", len(h), h)
	}
	if PolygonArea(h) <= 0 {
		t.Fatal("hull should be counterclockwise")
	}
	almost(t, PolygonArea(h), 16, 1e-12, "hull area")
}

func TestConvexHullDegenerate(t *testing.T) {
	if h := ConvexHull(nil); h != nil {
		t.Fatal("empty input")
	}
	h := ConvexHull([]Point{{1, 1}, {1, 1}, {1, 1}})
	if len(h) != 1 {
		t.Fatalf("all-equal input: got %v", h)
	}
	h = ConvexHull([]Point{{0, 0}, {1, 1}, {2, 2}, {3, 3}})
	if len(h) != 2 {
		t.Fatalf("collinear input should give 2 extremes, got %v", h)
	}
}

func TestConvexHullContainsAll(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		pts := make([]Point, 30)
		for i := range pts {
			pts[i] = Pt(r.Float64()*10, r.Float64()*10)
		}
		h := ConvexHull(pts)
		for _, p := range pts {
			if !PointInConvex(h, p) {
				t.Fatalf("hull does not contain input point %v", p)
			}
		}
	}
}

func TestFarthestNearestPoint(t *testing.T) {
	pts := []Point{{0, 0}, {5, 0}, {0, 5}, {3, 3}}
	q := Pt(-1, 0)
	fi, fd := FarthestPoint(pts, q)
	if fi != 1 {
		t.Fatalf("farthest index %d", fi)
	}
	almost(t, fd, 6, 1e-12, "farthest dist")
	ni, nd := NearestPoint(pts, q)
	if ni != 0 {
		t.Fatalf("nearest index %d", ni)
	}
	almost(t, nd, 1, 1e-12, "nearest dist")
}

func TestBBox(t *testing.T) {
	b := BBoxOf([]Point{{1, 2}, {-1, 5}, {3, 0}})
	if b.MinX != -1 || b.MaxX != 3 || b.MinY != 0 || b.MaxY != 5 {
		t.Fatalf("bbox %+v", b)
	}
	if !b.Contains(Pt(0, 1)) || b.Contains(Pt(10, 0)) {
		t.Fatal("contains")
	}
	almost(t, b.DistToPoint(Pt(6, 0)), 3, 1e-12, "dist outside")
	almost(t, b.DistToPoint(Pt(0, 2)), 0, 0, "dist inside")
	if !b.Intersects(BBox{2, 4, 9, 9}) {
		t.Fatal("intersects")
	}
	if b.Intersects(BBox{4, 6, 9, 9}) {
		t.Fatal("disjoint boxes")
	}
}

func TestBisect(t *testing.T) {
	root := Bisect(func(x float64) float64 { return x*x - 2 }, 0, 2, 1e-12)
	almost(t, root, math.Sqrt2, 1e-10, "sqrt2 by bisection")
}

func TestBracketRoots(t *testing.T) {
	// sin has roots at 0, π, 2π, 3π in [−1, 10].
	roots := BracketRoots(math.Sin, -1, 10, 200, nil, 1e-12, 1e-6)
	want := []float64{0, math.Pi, 2 * math.Pi, 3 * math.Pi}
	if len(roots) != len(want) {
		t.Fatalf("got %d roots %v", len(roots), roots)
	}
	for i := range want {
		almost(t, roots[i], want[i], 1e-9, "root")
	}
}

func TestApolloniusDisk(t *testing.T) {
	// Witness disk touching two small disks from outside and containing a
	// third touched from inside. Symmetric configuration with a known
	// solution: D1=(−4,0,r=1), D2=(4,0,r=1), D3=(0,2,r=1).
	d1, d2, d3 := Dsk(-4, 0, 1), Dsk(4, 0, 1), Dsk(0, 2, 1)
	sols := ApolloniusDisk(d1, d2, d3)
	if len(sols) == 0 {
		t.Fatal("expected at least one witness disk")
	}
	found := false
	for _, w := range sols {
		okOut1 := NearlyEqual(w.C.Dist(d1.C), w.R+d1.R, 1e-7)
		okOut2 := NearlyEqual(w.C.Dist(d2.C), w.R+d2.R, 1e-7)
		okIn3 := NearlyEqual(w.C.Dist(d3.C), w.R-d3.R, 1e-7)
		if okOut1 && okOut2 && okIn3 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no solution satisfies the three tangency conditions: %v", sols)
	}
}

func TestPolygonCentroidSquare(t *testing.T) {
	sq := []Point{{0, 0}, {2, 0}, {2, 2}, {0, 2}}
	c := PolygonCentroid(sq)
	if !c.Eq(Pt(1, 1), 1e-12) {
		t.Fatalf("centroid %v", c)
	}
}
