// Package quantify computes the quantification probabilities π_i(q) — the
// probability that uncertain point P_i is the nearest neighbor of q —
// implementing the three regimes of Section 4 of the paper:
//
//   - exact evaluation of Eq. (2) for discrete distributions, both per
//     query (a sorted sweep over the Lemma 2.1 window of q) and via the
//     probabilistic Voronoi diagram V_Pr (Theorem 4.2, vpr.go);
//   - the Monte Carlo estimator of Theorems 4.3 and 4.5 (montecarlo.go);
//   - the deterministic spiral-search approximation of Theorem 4.7
//     (spiral.go).
package quantify

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"sync"

	"pnn/internal/dist"
	"pnn/internal/geom"
)

// Location is one possible position of an uncertain point.
type Location struct {
	Owner int // index of the uncertain point
	P     geom.Point
	W     float64 // location probability
}

// Flatten lists all locations of a discrete uncertain-point set.
func Flatten(pts []*dist.Discrete) []Location {
	var out []Location
	for i, p := range pts {
		for t, l := range p.Locs {
			out = append(out, Location{Owner: i, P: l, W: p.W[t]})
		}
	}
	return out
}

// ExactAll returns π_i(q) for every uncertain point by evaluating Eq. (2)
// over the Lemma 2.1 window of q (see ExactPositiveInto): O(N) to find
// the window plus O(m log m) to sweep its m locations. The window's
// owners are scattered into a zeroed vector; the sweep scratch is pooled.
func ExactAll(pts []*dist.Discrete, q geom.Point) []float64 {
	pi := make([]float64, len(pts))
	sc := windowPool.Get().(*windowScratch)
	sc.sweep(pts, q)
	for id, p := range sc.pi {
		pi[sc.owners[id]] = p
	}
	windowPool.Put(sc)
	return pi
}

// ExactPositiveInto appends the owners with π_i(q) > 0 to dst (reused
// from its start) in increasing owner order — the native sparse exact
// answer, bitwise identical to ExactAll's positive entries. Only the
// Lemma 2.1 window is swept: π_i(q) > 0 requires δ_i(q) < Δ(q), where
// Δ(q) = min_j Δ_j(q) is the smallest farthest-location distance, so
// the locations farther than Δ(q) cannot change any probability.
func ExactPositiveInto(pts []*dist.Discrete, q geom.Point, dst []IndexProb) []IndexProb {
	dst = dst[:0]
	sc := windowPool.Get().(*windowScratch)
	sc.sweep(pts, q)
	for id, p := range sc.pi {
		if p > 0 {
			dst = append(dst, IndexProb{I: sc.owners[id], P: p})
		}
	}
	windowPool.Put(sc)
	return dst
}

// windowScratch is the pooled working set of the window kernel: one
// entry per owner in near, everything else sized by the window.
type windowScratch struct {
	near   []float64 // per owner: min_t d²(q, p_it)
	recs   []subsetRec
	owners []int // compact id → owner, increasing
	left   []int // compact id → locations not yet folded
	pi     []float64
	factor []float64
}

var windowPool = sync.Pool{New: func() any { return new(windowScratch) }}

// sweep evaluates Eq. (2) over the window of q: the locations with
// d²(q, p) ≤ Δ²(q) = min_j max_t d²(q, p_jt). Afterwards sc.pi[id] is
// π of owner sc.owners[id]; owners outside the window have π = 0.
//
// The result is bitwise identical to the full sweep over all N
// locations in (d², input position) order. The window is a prefix of
// that order, and the owner attaining Δ² has every location inside it,
// so its factor is exactly 0 once the prefix is folded (sweepRecs'
// left counts). From then on every credit of the full sweep multiplies
// by a product containing that zero, adding exactly +0. The window is
// sorted by (d², position) for the same reason: the prefix must fold
// tied locations in the order the full sweep would.
func (sc *windowScratch) sweep(pts []*dist.Discrete, q geom.Point) {
	sc.near = slices.Grow(sc.near[:0], len(pts))[:len(pts)]
	delta2 := math.Inf(1)
	for i, p := range pts {
		near, far := math.Inf(1), math.Inf(-1)
		for _, l := range p.Locs {
			d2 := l.Dist2(q)
			near = min(near, d2)
			far = max(far, d2)
		}
		sc.near[i] = near
		delta2 = min(delta2, far)
	}
	recs := sc.recs[:0]
	sc.owners, sc.left = sc.owners[:0], sc.left[:0]
	for i, p := range pts {
		if sc.near[i] > delta2 {
			continue
		}
		id := len(sc.owners)
		sc.owners = append(sc.owners, i)
		sc.left = append(sc.left, len(p.Locs))
		for t, l := range p.Locs {
			if d2 := l.Dist2(q); d2 <= delta2 {
				recs = append(recs, subsetRec{d2: d2, seq: len(recs), Location: Location{Owner: id, P: l, W: p.W[t]}})
			}
		}
	}
	sc.recs = recs
	slices.SortFunc(recs, func(a, b subsetRec) int {
		if c := cmp.Compare(a.d2, b.d2); c != 0 {
			return c
		}
		return cmp.Compare(a.seq, b.seq)
	})
	m := len(sc.owners)
	sc.pi = slices.Grow(sc.pi[:0], m)[:m]
	sc.factor = slices.Grow(sc.factor[:0], m)[:m]
	for id := range m {
		sc.pi[id] = 0
		sc.factor[id] = 1
	}
	sweepRecs(recs, sc.pi, sc.factor, sc.left)
}

// ExactSubset evaluates Eq. (2) restricted to the given locations (which
// need not cover full probability mass — the spiral-search estimator of
// Section 4.3 calls it with the m nearest locations only). n is the number
// of owners.
func ExactSubset(locs []Location, n int, q geom.Point) []float64 {
	recs := make([]subsetRec, len(locs))
	for i, l := range locs {
		recs[i] = subsetRec{d2: l.P.Dist2(q), Location: l}
	}
	sortRecs(recs)
	pi := make([]float64, n)
	factor := make([]float64, n) // 1 − G_{q,j}(current distance)
	for j := range factor {
		factor[j] = 1
	}
	sweepRecs(recs, pi, factor, nil)
	return pi
}

// subsetRec is one location tagged with its squared query distance.
// The window kernel numbers its records in input order in seq and breaks
// distance ties by it; the subset sweeps leave it 0.
type subsetRec struct {
	d2  float64
	seq int
	Location
}

// sortRecs orders recs by distance, allocation-free. Both the dense and
// the sparse sweep sort through this one function, so the two paths
// apply the identical permutation to tied distances and their
// floating-point results stay bitwise equal.
func sortRecs(recs []subsetRec) {
	slices.SortFunc(recs, func(a, b subsetRec) int { return cmp.Compare(a.d2, b.d2) })
}

// sortByOwner orders sparse report entries in increasing owner order.
func sortByOwner(entries []IndexProb) {
	slices.SortFunc(entries, func(a, b IndexProb) int { return cmp.Compare(a.I, b.I) })
}

// sweepRecs runs the Eq. (2) sweep over distance-sorted recs. pi
// accumulates per-owner probabilities (must be zeroed) and factor holds
// 1 − G_{q,j} per owner (must be all ones); both are indexed by
// rec.Owner. The running product Π_j (1 − G_{q,j}(d)) is kept in
// zero-aware form, so owners whose whole mass is inside the current
// radius (factor exactly 0) never force a division by zero.
//
// left, when non-nil, counts each owner's locations not yet folded; a
// sweep that sees whole owners passes it so an owner's factor becomes
// exactly 0 with its last location. Weights are only validated to sum
// to 1 ± 1e-6, and a residual 1 − ΣW above the 1e-15 clamp would
// otherwise credit every farther location with a phantom probability
// outside NN≠0(q) (Lemma 2.1). Subset sweeps over partial owners (the
// spiral) pass nil and keep the clamp alone.
func sweepRecs(recs []subsetRec, pi, factor []float64, left []int) {
	nzProd := 1.0 // product of nonzero factors
	zeros := 0

	for lo := 0; lo < len(recs); {
		hi := lo
		for hi < len(recs) && recs[hi].d2 <= recs[lo].d2 {
			hi++
		}
		// First fold the whole equal-distance group into the cdfs: Eq. (2)
		// uses G(d(p,q)) with a non-strict inequality, so ties count.
		for t := lo; t < hi; t++ {
			o := recs[t].Owner
			old := factor[o]
			nf := old - recs[t].W
			if nf < 1e-15 {
				nf = 0
			}
			if left != nil {
				left[o]--
				if left[o] == 0 {
					nf = 0
				}
			}
			if old > 0 && nf == 0 {
				zeros++
				nzProd /= old
			} else if old > 0 {
				nzProd *= nf / old
			}
			factor[o] = nf
		}
		// Then credit each location in the group: w · Π_{j≠owner} factor_j.
		// The owner's own factor is excluded from the product entirely
		// (Eq. 2 multiplies over j ≠ i only), so its value is divided back
		// out — or, when it is exactly zero, the zero-count bookkeeping
		// recovers the product of the remaining factors.
		for t := lo; t < hi; t++ {
			o := recs[t].Owner
			var others float64
			switch {
			case zeros == 0:
				others = nzProd / factor[o]
			case zeros == 1 && factor[o] == 0:
				others = nzProd
			default:
				others = 0
			}
			pi[o] += recs[t].W * others
		}
		lo = hi
	}
}

// sparseScratch is the pooled working set of ExactSubsetPositiveInto:
// everything the compact sweep needs, sized by the subset (m locations,
// at most m distinct owners), never by the full point count.
type sparseScratch struct {
	recs   []subsetRec
	ids    map[int]int // owner → compact id
	owners []int       // compact id → owner
	pi     []float64   // per compact owner
	factor []float64
}

var sparsePool = sync.Pool{New: func() any {
	return &sparseScratch{ids: make(map[int]int)}
}}

// ExactSubsetPositiveInto evaluates Eq. (2) restricted to locs and
// appends the owners with positive probability to dst (reused from its
// start) in increasing owner order. It is the sparse form of
// ExactSubset: owners are remapped to a compact range first, so the
// sweep allocates O(m) scratch (pooled) instead of O(n), and the
// reported values are bitwise identical to the dense sweep's.
func ExactSubsetPositiveInto(locs []Location, q geom.Point, dst []IndexProb) []IndexProb {
	dst = dst[:0]
	sc := sparsePool.Get().(*sparseScratch)
	clear(sc.ids)
	sc.owners = sc.owners[:0]
	recs := sc.recs[:0]
	for _, l := range locs {
		id, ok := sc.ids[l.Owner]
		if !ok {
			id = len(sc.owners)
			sc.ids[l.Owner] = id
			sc.owners = append(sc.owners, l.Owner)
		}
		recs = append(recs, subsetRec{d2: l.P.Dist2(q), Location: Location{Owner: id, P: l.P, W: l.W}})
	}
	sc.recs = recs
	sortRecs(recs)
	m := len(sc.owners)
	if cap(sc.pi) < m {
		sc.pi = make([]float64, m)
		sc.factor = make([]float64, m)
	}
	sc.pi = sc.pi[:m]
	sc.factor = sc.factor[:m]
	for i := 0; i < m; i++ {
		sc.pi[i] = 0
		sc.factor[i] = 1
	}
	sweepRecs(recs, sc.pi, sc.factor, nil)
	for id, p := range sc.pi {
		if p > 0 {
			dst = append(dst, IndexProb{I: sc.owners[id], P: p})
		}
	}
	// Owners were numbered in first-appearance order; restore increasing
	// owner order.
	sortByOwner(dst)
	sparsePool.Put(sc)
	return dst
}

// exactNaive recomputes Eq. (2) directly in O(N²); it is the oracle the
// sweep is tested against and is exported within the package for tests.
func exactNaive(locs []Location, n int, q geom.Point) []float64 {
	pi := make([]float64, n)
	for _, l := range locs {
		d := l.P.Dist(q)
		prod := 1.0
		for j := 0; j < n; j++ {
			if j == l.Owner {
				continue
			}
			g := 0.0
			for _, m := range locs {
				if m.Owner == j && m.P.Dist(q) <= d {
					g += m.W
				}
			}
			prod *= 1 - g
		}
		pi[l.Owner] += l.W * prod
	}
	return pi
}

// PositiveInto filters a probability vector into (index, value) pairs
// with value > eps, the report format of the PNN problem, appending them
// to dst (reused from its start).
func PositiveInto(pi []float64, eps float64, dst []IndexProb) []IndexProb {
	dst = dst[:0]
	for i, p := range pi {
		if p > eps {
			dst = append(dst, IndexProb{I: i, P: p})
		}
	}
	return dst
}

// Scatter is the dense form of a report: an n-vector holding each
// entry's probability at its index and zeros elsewhere.
func Scatter(n int, entries []IndexProb) []float64 {
	pi := make([]float64, n)
	for _, e := range entries {
		pi[e.I] = e.P
	}
	return pi
}

// TopK returns the k largest probabilities as (index, value) pairs in
// decreasing order, breaking ties by index. It serves the top-k variants
// the paper's Section 1.2 surveys (ranking by probability).
func TopK(pi []float64, k int) []IndexProb {
	if k <= 0 {
		return nil
	}
	all := make([]IndexProb, 0, len(pi))
	for i, p := range pi {
		if p > 0 {
			all = append(all, IndexProb{I: i, P: p})
		}
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].P != all[b].P {
			return all[a].P > all[b].P
		}
		return all[a].I < all[b].I
	})
	if k > len(all) {
		k = len(all)
	}
	return all[:k]
}

// IndexProb pairs an uncertain-point index with its probability.
type IndexProb struct {
	I int
	P float64
}
