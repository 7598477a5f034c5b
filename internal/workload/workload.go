// Package workload generates the inputs for every cmd/pnnbench
// experiment (see `pnnbench -experiment list`): random uncertain-point sets (continuous and discrete),
// disjoint-disk families with bounded radius ratio λ (Theorem 2.10's upper
// bound regime), and the paper's explicit lower-bound constructions
// (Theorems 2.7, 2.8, 2.10 and Lemma 4.1).
package workload

import (
	"math"
	"math/rand"

	"pnn/internal/core"
	"pnn/internal/dist"
	"pnn/internal/geom"
)

// RandomDisks returns n disks with centers uniform in [0, extent]² and
// radii uniform in [rmin, rmax]. Overlaps are allowed.
func RandomDisks(r *rand.Rand, n int, extent, rmin, rmax float64) []geom.Disk {
	ds := make([]geom.Disk, n)
	for i := range ds {
		ds[i] = geom.Disk{
			C: geom.Pt(r.Float64()*extent, r.Float64()*extent),
			R: rmin + r.Float64()*(rmax-rmin),
		}
	}
	return ds
}

// DisjointDisks returns n pairwise-disjoint disks with radius ratio at most
// lambda (radii in [1, lambda]), placed by dart throwing in a box sized so
// placement succeeds quickly.
func DisjointDisks(r *rand.Rand, n int, lambda float64) []geom.Disk {
	if lambda < 1 {
		lambda = 1
	}
	// Expected area heuristic: total disk area × 8 gives fast dart throwing.
	avg := (1 + lambda) / 2
	extent := math.Sqrt(float64(n)*math.Pi*avg*avg*8) + 4*lambda
	var ds []geom.Disk
	for len(ds) < n {
		cand := geom.Disk{
			C: geom.Pt(r.Float64()*extent, r.Float64()*extent),
			R: 1 + r.Float64()*(lambda-1),
		}
		ok := true
		for _, d := range ds {
			if d.C.Dist(cand.C) <= d.R+cand.R {
				ok = false
				break
			}
		}
		if ok {
			ds = append(ds, cand)
		}
	}
	return ds
}

// RandomDiscrete returns n discrete uncertain points, each with k locations
// inside a cluster disk of the given radius; centers are uniform in
// [0, extent]². Weights are Dirichlet-ish: uniform stick-breaking clamped
// so the spread stays below maxSpread (maxSpread ≤ 1 means uniform
// weights).
func RandomDiscrete(r *rand.Rand, n, k int, extent, radius, maxSpread float64) []*dist.Discrete {
	pts := make([]*dist.Discrete, n)
	for i := range pts {
		c := geom.Pt(r.Float64()*extent, r.Float64()*extent)
		locs := make([]geom.Point, k)
		for t := range locs {
			ang := r.Float64() * 2 * math.Pi
			rr := radius * math.Sqrt(r.Float64())
			locs[t] = c.Add(geom.Dir(ang).Scale(rr))
		}
		if maxSpread <= 1 {
			pts[i] = dist.UniformDiscrete(locs)
			continue
		}
		w := make([]float64, k)
		lo := 1.0
		hi := maxSpread
		sum := 0.0
		for t := range w {
			w[t] = lo + r.Float64()*(hi-lo)
			sum += w[t]
		}
		for t := range w {
			w[t] /= sum
		}
		d, err := dist.NewDiscrete(locs, w)
		if err != nil {
			pts[i] = dist.UniformDiscrete(locs)
		} else {
			pts[i] = d
		}
	}
	return pts
}

// Supports extracts the location supports for diagram construction.
func Supports(pts []*dist.Discrete) []core.DiscretePoint {
	out := make([]core.DiscretePoint, len(pts))
	for i, p := range pts {
		out[i] = core.DiscretePoint{Locs: p.Locs}
	}
	return out
}

// LowerBoundCubic builds the Theorem 2.7 configuration: n = 4m disks whose
// nonzero Voronoi diagram has Ω(n³) vertices (2 vertices per triple
// (i, j, k) ∈ [m]×[m]×[2m]). Radii are mixed: two families of huge disks of
// radius R = 8n² flanking 2m unit disks on the y-axis.
func LowerBoundCubic(n int) []geom.Disk {
	m := n / 4
	if m < 1 {
		m = 1
	}
	n = 4 * m
	R := 8 * float64(n) * float64(n)
	omega := 1 / (float64(n) * float64(n))
	var ds []geom.Disk
	for i := 1; i <= m; i++ {
		ds = append(ds, geom.Disk{C: geom.Pt(-R-1.5-float64(i-1)*omega, 0), R: R})
	}
	for j := 1; j <= m; j++ {
		ds = append(ds, geom.Disk{C: geom.Pt(R+1.5+float64(j-1)*omega, 0), R: R})
	}
	for k := 1; k <= 2*m; k++ {
		ds = append(ds, geom.Disk{C: geom.Pt(0, float64(4*(k-m)-2)), R: 1})
	}
	return ds
}

// LowerBoundCubicExpected returns the number of vertices the Theorem 2.7
// construction guarantees: 2·m·m·2m with m = n/4.
func LowerBoundCubicExpected(n int) int {
	m := n / 4
	return 4 * m * m * m
}

// LowerBoundCubicEqualRadii builds the Theorem 2.8 configuration: n = 3m
// unit disks whose diagram has Ω(n³) vertices (1 per triple (i,j,k) ∈ [m]³)
// even though all radii are equal.
func LowerBoundCubicEqualRadii(n int) []geom.Disk {
	m := n / 3
	if m < 1 {
		m = 1
	}
	theta := math.Pi / 2 / float64(m+1)
	omega := theta / (200 * float64(m))
	var ds []geom.Disk
	for i := 1; i <= m; i++ {
		ds = append(ds, geom.Disk{C: geom.Pt(-2-float64(i-1)*omega, 0), R: 1})
	}
	for j := 1; j <= m; j++ {
		ds = append(ds, geom.Disk{C: geom.Pt(2+float64(j-1)*omega, 0), R: 1})
	}
	for k := 1; k <= m; k++ {
		ds = append(ds, geom.Disk{
			C: geom.Pt(2-2*math.Cos(float64(k)*theta), 2*math.Sin(float64(k)*theta)),
			R: 1,
		})
	}
	return ds
}

// LowerBoundCubicEqualRadiiExpected returns m³ with m = n/3.
func LowerBoundCubicEqualRadiiExpected(n int) int {
	m := n / 3
	return m * m * m
}

// LowerBoundQuadratic builds the Theorem 2.10 configuration: n = 2m
// pairwise-disjoint unit disks on a line whose diagram has Ω(n²) vertices
// (2 per pair (i,j) with j − i ≥ 2).
func LowerBoundQuadratic(n int) []geom.Disk {
	m := n / 2
	if m < 1 {
		m = 1
	}
	ds := make([]geom.Disk, 2*m)
	for i := 1; i <= 2*m; i++ {
		ds[i-1] = geom.Disk{C: geom.Pt(float64(4*(i-m)-2), 0), R: 1}
	}
	return ds
}

// LowerBoundQuadraticExpected returns the number of vertices guaranteed by
// Theorem 2.10's construction: 2 per pair (i, j) with j − i ≥ 2.
func LowerBoundQuadraticExpected(n int) int {
	if n < 3 {
		return 0
	}
	return (n - 2) * (n - 1)
}

// VPrLowerBound builds the Lemma 4.1 configuration for the probabilistic
// Voronoi diagram: n uncertain points, each with two locations — one inside
// the unit disk at the origin, one far away at (100, 0) — each with
// probability 1/2. The bisectors of the near locations produce Ω(n⁴) faces
// with pairwise-distinct probability vectors inside the unit disk.
func VPrLowerBound(r *rand.Rand, n int) []*dist.Discrete {
	pts := make([]*dist.Discrete, n)
	far := geom.Pt(100, 0)
	for i := range pts {
		// Near locations in general position inside the unit disk: random
		// points in a small annulus avoid degenerate bisectors.
		ang := r.Float64() * 2 * math.Pi
		rad := 0.3 + 0.6*r.Float64()
		near := geom.Dir(ang).Scale(rad)
		d, _ := dist.NewDiscrete([]geom.Point{near, far}, []float64{0.5, 0.5})
		pts[i] = d
	}
	return pts
}

// QueryPoints returns m query points uniform in the box.
func QueryPoints(r *rand.Rand, m int, box geom.BBox) []geom.Point {
	qs := make([]geom.Point, m)
	for i := range qs {
		qs[i] = geom.Pt(
			box.MinX+r.Float64()*box.Width(),
			box.MinY+r.Float64()*box.Height(),
		)
	}
	return qs
}

// DisksBBox returns the bounding box of a disk family.
func DisksBBox(ds []geom.Disk) geom.BBox {
	bb := geom.EmptyBBox()
	for _, d := range ds {
		bb = bb.Union(d.BBox())
	}
	return bb
}

// DiscreteBBox returns the bounding box of all locations.
func DiscreteBBox(pts []*dist.Discrete) geom.BBox {
	bb := geom.EmptyBBox()
	for _, p := range pts {
		bb = bb.Union(geom.BBoxOf(p.Locs))
	}
	return bb
}
