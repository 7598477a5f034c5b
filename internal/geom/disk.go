package geom

import (
	"fmt"
	"math"
)

// Disk is a closed disk with center C and radius R >= 0.
type Disk struct {
	C Point
	R float64
}

// Dsk is shorthand for Disk{Point{x, y}, r}.
func Dsk(x, y, r float64) Disk { return Disk{Point{x, y}, r} }

// Contains reports whether p lies in the closed disk.
func (d Disk) Contains(p Point) bool { return d.C.Dist2(p) <= d.R*d.R }

// ContainsDisk reports whether the closed disk d contains the closed disk o.
func (d Disk) ContainsDisk(o Disk) bool { return d.C.Dist(o.C)+o.R <= d.R }

// Intersects reports whether two closed disks share a point.
func (d Disk) Intersects(o Disk) bool { return d.C.Dist(o.C) <= d.R+o.R }

// MinDist returns the minimum distance from q to the disk:
// max(d(q,C) - R, 0). This is the δ function of the paper.
func (d Disk) MinDist(q Point) float64 { return math.Max(d.C.Dist(q)-d.R, 0) }

// MaxDist returns the maximum distance from q to the disk:
// d(q,C) + R. This is the Δ function of the paper.
func (d Disk) MaxDist(q Point) float64 { return d.C.Dist(q) + d.R }

// Area returns the area of the disk.
func (d Disk) Area() float64 { return math.Pi * d.R * d.R }

// BBox returns the bounding box of the disk.
func (d Disk) BBox() BBox {
	return BBox{d.C.X - d.R, d.C.Y - d.R, d.C.X + d.R, d.C.Y + d.R}
}

// String implements fmt.Stringer.
func (d Disk) String() string { return fmt.Sprintf("D(%v, r=%.6g)", d.C, d.R) }

// TouchesFromOutside reports whether d and o touch from the outside within
// tolerance tol: boundaries meet, interiors disjoint.
func (d Disk) TouchesFromOutside(o Disk, tol float64) bool {
	return math.Abs(d.C.Dist(o.C)-(d.R+o.R)) <= tol
}

// TouchesFromInside reports whether o touches d from the inside within
// tolerance tol: boundaries meet and o lies inside d.
func (d Disk) TouchesFromInside(o Disk, tol float64) bool {
	return math.Abs(d.C.Dist(o.C)-(d.R-o.R)) <= tol && d.R >= o.R-tol
}

// CircleIntersection returns the 0, 1, or 2 intersection points of the
// boundary circles of d and o.
func (d Disk) CircleIntersection(o Disk) []Point {
	dist := d.C.Dist(o.C)
	if dist == 0 {
		return nil // concentric: none or infinitely many; report none
	}
	if dist > d.R+o.R || dist < math.Abs(d.R-o.R) {
		return nil
	}
	// Distance from d.C to the radical line along the center line.
	a := (dist*dist + d.R*d.R - o.R*o.R) / (2 * dist)
	h2 := d.R*d.R - a*a
	if h2 < 0 {
		h2 = 0
	}
	h := math.Sqrt(h2)
	dir := o.C.Sub(d.C).Scale(1 / dist)
	mid := d.C.Add(dir.Scale(a))
	if h == 0 {
		return []Point{mid}
	}
	off := dir.Perp().Scale(h)
	return []Point{mid.Add(off), mid.Sub(off)}
}

// LensArea returns the area of the intersection of two disks. It is the
// closed-form used for the distance cdf of a uniform-disk uncertain point
// (Figure 1 of the paper).
func LensArea(a, b Disk) float64 {
	d := a.C.Dist(b.C)
	if d >= a.R+b.R {
		return 0
	}
	if d <= math.Abs(a.R-b.R) {
		r := math.Min(a.R, b.R)
		return math.Pi * r * r
	}
	// Circular-segment decomposition: the common chord subtends 2α_a at
	// a's center and 2α_b at b's.
	return segmentArea(a.R, TriangleAngle(d, a.R, b.R)) + segmentArea(b.R, TriangleAngle(d, b.R, a.R))
}

// segmentArea returns the area ρ²(2φ − sin 2φ)/2 of the segment a chord
// subtending 2φ at the center cuts from a circle of radius ρ. Below
// 2φ = 0.5 a Taylor series replaces x − sin x, which cancels to noise for
// the sliver a large circle cuts from a tiny disk.
func segmentArea(rho, phi float64) float64 {
	x := 2 * phi
	var xs float64
	if x < 0.5 {
		x2 := x * x
		xs = x * x2 / 6 * (1 - x2/20*(1-x2/42*(1-x2/72*(1-x2/110*(1-x2/156*(1-x2/210))))))
	} else {
		xs = x - math.Sin(x)
	}
	return rho * rho * xs / 2
}

// TriangleAngle returns the angle between the sides of lengths a and b of
// a triangle whose third side has length c: 0 when c ≤ |a − b| and π when
// c ≥ a + b. It uses the half-angle tangent
//
//	tan²(γ/2) = (c − a + b)(c + a − b) / ((a + b − c)(a + b + c))
//
// with each factor formed in Kahan's order (sides sorted, the difference
// of the two largest taken first), so a needle-thin triangle keeps full
// relative precision. The law of cosines, cos γ = (a² + b² − c²)/(2ab),
// cancels to a constant once c² falls below float64 precision relative
// to a² — a disk of radius 1e-9 at distance 1 from the query.
func TriangleAngle(a, b, c float64) float64 {
	s := [3]float64{a, b, c}
	o := [3]int{0, 1, 2} // o[k] indexes the k-th longest side
	if s[o[0]] < s[o[1]] {
		o[0], o[1] = o[1], o[0]
	}
	if s[o[1]] < s[o[2]] {
		o[1], o[2] = o[2], o[1]
	}
	if s[o[0]] < s[o[1]] {
		o[0], o[1] = o[1], o[0]
	}
	x, y, z := s[o[0]], s[o[1]], s[o[2]]
	var f [3]float64 // f[k]: the sum of the sides with side k negated
	f[o[0]] = z - (x - y)
	f[o[1]] = z + (x - y)
	f[o[2]] = x + (y - z)
	// Only f[o[0]] can be negative: the longest side exceeds the others' sum.
	num, den := f[0]*f[1], f[2]*(x+(y+z))
	if num <= 0 {
		return 0
	}
	if den <= 0 {
		return math.Pi
	}
	return 2 * math.Atan2(math.Sqrt(num), math.Sqrt(den))
}

// CircumDisk returns the disk whose boundary passes through a, b and c. ok
// is false when the points are (near-)collinear.
func CircumDisk(a, b, c Point) (Disk, bool) {
	// Solve via perpendicular bisector intersection in a numerically
	// friendly form (translate to a's frame).
	bx, by := b.X-a.X, b.Y-a.Y
	cx, cy := c.X-a.X, c.Y-a.Y
	den := 2 * (bx*cy - by*cx)
	if den == 0 {
		return Disk{}, false
	}
	b2 := bx*bx + by*by
	c2 := cx*cx + cy*cy
	ux := (cy*b2 - by*c2) / den
	uy := (bx*c2 - cx*b2) / den
	center := Point{a.X + ux, a.Y + uy}
	return Disk{center, math.Hypot(ux, uy)}, true
}

// ApolloniusDisk returns disks that simultaneously touch d1 and d2 from the
// outside and d3 from the inside (the witness disks realizing vertices of
// the nonzero Voronoi diagram: δ-contact with d3's point, Δ-contact with d1
// and d2). The centers x satisfy
//
//	d(x, c1) = ρ + r1,  d(x, c2) = ρ + r2,  d(x, c3) = ρ - r3
//
// for the witness radius ρ. Subtracting pairs gives two hyperbola equations
// solved numerically along their intersection. Up to two solutions are
// returned. The function is used by tests to validate arrangement vertices,
// not on the hot path.
func ApolloniusDisk(d1, d2, d3 Disk) []Disk {
	// Shift radii: witness center is equidistant (dist - weight) from the
	// three "weighted points" with weights w1=-r1, w2=-r2, w3=+r3:
	//   d(x,c1)-(-r1*-1)... Use standard trick: solve for x and ρ from
	//   |x-c1|^2 = (ρ+r1)^2, |x-c2|^2 = (ρ+r2)^2, |x-c3|^2 = (ρ-r3)^2.
	// Subtracting eq1 from eq2 and eq3 yields two linear equations in
	// (x, y, ρ). Solve the 2x3 linear system parameterized by ρ, then
	// substitute into eq1 (quadratic in ρ).
	c1, r1 := d1.C, d1.R
	c2, r2 := d2.C, d2.R
	c3, r3 := d3.C, -d3.R // inside contact flips the sign
	// eq_i: -2 c_i·x + |c_i|^2 - 2 ρ r_i - r_i^2 = |x|^2 - ρ^2 (same RHS)
	// eq2-eq1: 2(c1-c2)·x + 2ρ(r1-r2) = |c1|^2-|c2|^2 + r1^2-r2^2 ... sign care below.
	a11 := 2 * (c2.X - c1.X)
	a12 := 2 * (c2.Y - c1.Y)
	b1r := 2 * (r1 - r2)
	k1 := c2.Norm2() - c1.Norm2() + r1*r1 - r2*r2
	a21 := 2 * (c3.X - c1.X)
	a22 := 2 * (c3.Y - c1.Y)
	b2r := 2 * (r1 - r3)
	k2 := c3.Norm2() - c1.Norm2() + r1*r1 - r3*r3
	det := a11*a22 - a12*a21
	if det == 0 {
		return nil
	}
	// x = px + qx*ρ, y = py + qy*ρ
	px := (k1*a22 - k2*a12) / det
	py := (a11*k2 - a21*k1) / det
	qx := (b1r*a22 - b2r*a12) / det
	qy := (a11*b2r - a21*b1r) / det
	// Substitute into |x-c1|^2 = (ρ+r1)^2.
	ex := px - c1.X
	ey := py - c1.Y
	A := qx*qx + qy*qy - 1
	B := 2*(ex*qx+ey*qy) - 2*r1
	C := ex*ex + ey*ey - r1*r1
	var roots []float64
	if math.Abs(A) < 1e-14 {
		if B != 0 {
			roots = []float64{-C / B}
		}
	} else {
		disc := B*B - 4*A*C
		if disc < 0 {
			return nil
		}
		sq := math.Sqrt(disc)
		roots = []float64{(-B + sq) / (2 * A), (-B - sq) / (2 * A)}
	}
	var out []Disk
	for _, rho := range roots {
		if rho <= 0 || rho < -r3 { // need ρ ≥ r3 (inside contact feasible)
			continue
		}
		x := Point{px + qx*rho, py + qy*rho}
		out = append(out, Disk{x, rho})
	}
	return out
}
