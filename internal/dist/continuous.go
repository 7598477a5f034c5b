package dist

import (
	"math"
	"math/rand"

	"pnn/internal/geom"
)

// Continuous is a continuous uncertain point: a probability density
// supported on a disk. The distance pdf g_q(r) and cdf G_q(r) are the
// one-dimensional distributions of d(q, P) that Eq. (1) integrates.
type Continuous interface {
	// SupportDisk returns the support; d(q, P) lies in
	// [MinDist(q), MaxDist(q)] of this disk.
	SupportDisk() geom.Disk
	// DistPDF returns g_q(r), the density of the distance d(q, P) at r.
	DistPDF(q geom.Point, r float64) float64
	// DistCDF returns G_q(r) = Pr[d(q, P) ≤ r].
	DistCDF(q geom.Point, r float64) float64
	// Sample draws one location from the density.
	Sample(rng *rand.Rand) geom.Point
}

// UniformDisk is the uniform density on a disk — the distribution of
// Figure 1 of the paper, with closed-form distance pdf and cdf.
type UniformDisk struct {
	D geom.Disk
}

// SupportDisk returns the support disk.
func (u UniformDisk) SupportDisk() geom.Disk { return u.D }

// Sample draws a uniform point of the disk (area-correct radius law).
func (u UniformDisk) Sample(rng *rand.Rand) geom.Point {
	if u.D.R <= 0 {
		return u.D.C
	}
	rr := u.D.R * math.Sqrt(rng.Float64())
	th := rng.Float64() * 2 * math.Pi
	return u.D.C.Add(geom.Dir(th).Scale(rr))
}

// DistCDF returns the lens-area ratio |D ∩ B(q,r)| / |D| (Figure 1(b)).
func (u UniformDisk) DistCDF(q geom.Point, r float64) float64 {
	if r <= 0 {
		return 0
	}
	d := q.Dist(u.D.C)
	if u.D.R <= 0 {
		// Point mass at the center.
		if d <= r {
			return 1
		}
		return 0
	}
	if r >= d+u.D.R {
		return 1
	}
	if r <= d-u.D.R {
		return 0
	}
	c := geom.LensArea(u.D, geom.Disk{C: q, R: r}) / u.D.Area()
	return math.Min(c, 1)
}

// DistPDF returns g_q(r): the length of the circular arc of ∂B(q,r)
// inside the disk divided by the disk area.
func (u UniformDisk) DistPDF(q geom.Point, r float64) float64 {
	R := u.D.R
	if R <= 0 || r <= 0 {
		return 0
	}
	d := q.Dist(u.D.C)
	if r > d+R || r < d-R {
		return 0
	}
	if r <= R-d {
		// The circle around q lies entirely inside the disk. With q at the
		// center this includes r = R (the left limit), so quadrature
		// endpoints are exact.
		return 2 * r / (R * R)
	}
	// Partial arc of half-angle θ: the angle at q of the triangle with
	// sides d, r and R.
	th := geom.TriangleAngle(d, r, R)
	return 2 * r * th / (math.Pi * R * R)
}

// TruncatedGaussian is an isotropic Gaussian centered at the disk center,
// truncated to the disk and renormalized.
type TruncatedGaussian struct {
	D     geom.Disk
	Sigma float64
}

// SupportDisk returns the truncation disk.
func (g TruncatedGaussian) SupportDisk() geom.Disk { return g.D }

// mass returns the un-normalized Gaussian mass of the truncation disk,
// ∫_D exp(−|x−c|²/2σ²) dx = 2πσ²(1 − exp(−R²/2σ²)).
func (g TruncatedGaussian) mass() float64 {
	s2 := g.Sigma * g.Sigma
	return 2 * math.Pi * s2 * (1 - math.Exp(-g.D.R*g.D.R/(2*s2)))
}

// Sample draws from the truncated Gaussian by the inverse radial cdf
// (F(ρ) ∝ 1 − exp(−ρ²/2σ²)) and a uniform angle.
func (g TruncatedGaussian) Sample(rng *rand.Rand) geom.Point {
	if g.D.R <= 0 || g.Sigma <= 0 {
		return g.D.C
	}
	s2 := g.Sigma * g.Sigma
	total := 1 - math.Exp(-g.D.R*g.D.R/(2*s2))
	u := rng.Float64()
	rr := math.Sqrt(-2 * s2 * math.Log(1-u*total))
	if rr > g.D.R {
		rr = g.D.R
	}
	th := rng.Float64() * 2 * math.Pi
	return g.D.C.Add(geom.Dir(th).Scale(rr))
}

// DistPDF integrates the position density along the arc of ∂B(q,r)
// inside the disk: g_q(r) = r ∫ f(q + r·e^{iθ}) dθ.
func (g TruncatedGaussian) DistPDF(q geom.Point, r float64) float64 {
	R := g.D.R
	if R <= 0 || g.Sigma <= 0 || r <= 0 {
		return 0
	}
	s2 := g.Sigma * g.Sigma
	z := g.mass()
	d := q.Dist(g.D.C)
	if r >= d+R || r <= d-R {
		return 0
	}
	if d == 0 {
		// Query at the center: the whole circle is inside for r < R.
		return 2 * math.Pi * r * math.Exp(-r*r/(2*s2)) / z
	}
	// θ measured from the direction q → c; the point at angle θ has
	// squared distance (d − r)² + 4dr·sin²(θ/2) to the center and lies
	// inside the disk up to θ_max, the angle at q of the triangle with
	// sides d, r and R (π when the whole circle is inside).
	thMax := geom.TriangleAngle(d, r, R)
	f := func(th float64) float64 {
		s := math.Sin(th / 2)
		return math.Exp(-((d-r)*(d-r) + 4*d*r*s*s) / (2 * s2))
	}
	return 2 * r * simpson(f, 0, thMax, 32) / z
}

// DistCDF integrates the truncated-Gaussian mass of D ∩ B(q,r) in polar
// coordinates around the disk center.
func (g TruncatedGaussian) DistCDF(q geom.Point, r float64) float64 {
	R := g.D.R
	if r <= 0 {
		return 0
	}
	if R <= 0 || g.Sigma <= 0 {
		if q.Dist(g.D.C) <= r {
			return 1
		}
		return 0
	}
	d := q.Dist(g.D.C)
	if r >= d+R {
		return 1
	}
	if r <= d-R {
		return 0
	}
	s2 := g.Sigma * g.Sigma
	z := g.mass()
	// β(ρ) is the angular measure of the circle of radius ρ about the
	// center that lies within B(q, r).
	beta := func(rho float64) float64 {
		if d == 0 {
			// Query at the center: a step at ρ = r, whose left limit the
			// band's upper end needs.
			if rho <= r {
				return 2 * math.Pi
			}
			return 0
		}
		return 2 * geom.TriangleAngle(rho, d, r)
	}
	f := func(rho float64) float64 {
		return rho * math.Exp(-rho*rho/(2*s2)) * beta(rho)
	}
	// β vanishes outside (d−r, d+r): integrate only over the band where
	// the circle of radius ρ meets B(q, r).
	lo := math.Max(0, d-r)
	hi := math.Min(R, d+r)
	c := simpson(f, lo, hi, 128) / z
	return math.Max(0, math.Min(c, 1))
}

// DiscretizeContinuous draws m locations from a continuous distribution
// and returns the uniform-weight discrete point of Lemma 4.4: with
// m = k(α) samples the discretization error is at most α per point.
func DiscretizeContinuous(c Continuous, m int, rng *rand.Rand) *Discrete {
	if m < 1 {
		m = 1
	}
	locs := make([]geom.Point, m)
	for i := range locs {
		locs[i] = c.Sample(rng)
	}
	return UniformDiscrete(locs)
}

func simpson(f func(float64) float64, a, b float64, n int) float64 {
	if b <= a {
		return 0
	}
	if n%2 == 1 {
		n++
	}
	h := (b - a) / float64(n)
	s := f(a) + f(b)
	for i := 1; i < n; i++ {
		x := a + float64(i)*h
		if i%2 == 0 {
			s += 2 * f(x)
		} else {
			s += 4 * f(x)
		}
	}
	return s * h / 3
}
