// Package baseline implements the comparison methods from the paper's
// related-work section: brute-force NN≠0 evaluation (Lemma 2.1 applied
// directly), per-query Monte Carlo without preprocessing, and the
// numerical-integration quantification of [CKP04] for continuous
// distributions (Eq. 1 integrated by adaptive Simpson). Every accelerated
// structure in this repository is benchmarked against these.
package baseline

import (
	"math"
	"math/rand"

	"pnn/internal/core"
	"pnn/internal/dist"
	"pnn/internal/geom"
)

// NonzeroBrute is the O(n)-per-query oracle for disks.
func NonzeroBrute(disks []geom.Disk, q geom.Point) []int {
	return core.NonzeroSet(disks, q)
}

// NonzeroBruteDiscrete is the O(nk)-per-query oracle for discrete points.
func NonzeroBruteDiscrete(pts []core.DiscretePoint, q geom.Point) []int {
	return core.NonzeroSetDiscrete(pts, q)
}

// MonteCarloPerQuery estimates π_i(q) with s fresh instantiations and no
// preprocessing: O(s·n) per query, the naive counterpart of Section 4.2.
func MonteCarloPerQuery(pts []*dist.Discrete, q geom.Point, s int, r *rand.Rand) []float64 {
	pi := make([]float64, len(pts))
	if s <= 0 {
		return pi
	}
	inc := 1 / float64(s)
	for round := 0; round < s; round++ {
		best := -1
		bestD := math.Inf(1)
		for i, p := range pts {
			if d := p.SamplePoint(r).Dist2(q); d < bestD {
				bestD = d
				best = i
			}
		}
		if best >= 0 {
			pi[best] += inc
		}
	}
	return pi
}

// IntegrateQuantification evaluates Eq. (1) for continuous uncertain
// points by one-dimensional quadrature:
//
//	π_i(q) = ∫ g_{q,i}(r) · Π_{j≠i} (1 − G_{q,j}(r)) dr
//
// over the support [δ_i(q), Δ_i(q)], using composite Simpson with the
// given number of panels. This is the [CKP04]-style numerical approach the
// paper calls "quite expensive": each evaluation needs all n cdfs.
func IntegrateQuantification(pts []dist.Continuous, q geom.Point, i int, panels int) float64 {
	if panels < 8 {
		panels = 8
	}
	sup := pts[i].SupportDisk()
	lo := sup.MinDist(q)
	hi := sup.MaxDist(q)
	if hi <= lo {
		// A zero-radius support is a point mass at r₀ = lo, so π_i is the
		// chance every other point lies farther: Π_{j≠i} (1 − G_{q,j}(r₀)).
		// A second point mass at r₀ zeroes both, a measure-zero tie.
		v := 1.0
		for j, p := range pts {
			if j != i {
				v *= 1 - p.DistCDF(q, lo)
			}
		}
		return v
	}
	f := func(r float64) float64 {
		v := pts[i].DistPDF(q, r)
		if v == 0 {
			return 0
		}
		for j, p := range pts {
			if j == i {
				continue
			}
			v *= 1 - p.DistCDF(q, r)
			if v == 0 {
				return 0
			}
		}
		return v
	}
	return simpson(f, lo, hi, panels)
}

// IntegrateAll evaluates Eq. (1) for every i.
func IntegrateAll(pts []dist.Continuous, q geom.Point, panels int) []float64 {
	out := make([]float64, len(pts))
	for i := range pts {
		out[i] = IntegrateQuantification(pts, q, i, panels)
	}
	return out
}

func simpson(f func(float64) float64, a, b float64, n int) float64 {
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
