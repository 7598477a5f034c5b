// Package nnq assembles the near-linear-size NN≠0 query structures of
// Section 3 of the paper, which avoid building the (worst-case cubic)
// nonzero Voronoi diagram:
//
//   - ContinuousIndex (Theorem 3.1): stage 1 computes Δ(q) with an
//     additively weighted NN structure, stage 2 reports all disks with
//     δ_i(q) < Δ(q).
//   - DiscreteIndex (Theorem 3.2): stage 1 computes Δ(q) = min_i Δ_i(q)
//     scanning per-point convex hulls (the farthest location always lies
//     on the hull), stage 2 reports the owners of all locations within
//     distance Δ(q) of q via one global kd-tree disk query.
//
// Both structures answer exactly; the partition-tree machinery of the
// paper is replaced by practical equivalents (the awvd envelope, the
// diskindex kd-tree, hull scans), so the query bounds are expected, not
// worst-case.
package nnq

import (
	"math"
	"sort"
	"sync"

	"pnn/internal/awvd"
	"pnn/internal/core"
	"pnn/internal/diskindex"
	"pnn/internal/geom"
	"pnn/internal/kdtree"
)

// ContinuousIndex answers NN≠0 queries over uncertainty disks in
// near-linear space (Theorem 3.1).
type ContinuousIndex struct {
	disks  []geom.Disk
	stage1 *awvd.Index
	stage2 *diskindex.Index
}

// NewContinuous builds the two-stage structure in O(n log n).
func NewContinuous(disks []geom.Disk) *ContinuousIndex {
	return &ContinuousIndex{
		disks:  disks,
		stage1: awvd.Build(disks),
		stage2: diskindex.Build(disks),
	}
}

// Query returns NN≠0(q) in increasing index order.
func (ix *ContinuousIndex) Query(q geom.Point) []int {
	return ix.QueryInto(q, nil)
}

// QueryInto is Query appending into dst (reused from its start) — the
// caller-buffer variant for allocation-flat query loops.
func (ix *ContinuousIndex) QueryInto(q geom.Point, dst []int) []int {
	dst = dst[:0]
	if len(ix.disks) == 0 {
		return dst
	}
	if len(ix.disks) == 1 {
		return append(dst, 0)
	}
	arg, delta, _ := ix.stage1.Nearest(q)
	out := ix.stage2.ReportMinDistLess(q, delta, dst)
	// The argmin disk always reports itself when its radius is positive
	// (δ < Δ on the same disk). Only for a degenerate zero-radius region
	// can δ_arg = Δ; then Lemma 2.1's j ≠ i exclusion requires comparing
	// against the second-smallest Δ, paid for with one linear scan on
	// that rare path.
	if ix.disks[arg].MinDist(q) >= delta &&
		ix.disks[arg].MinDist(q) < secondDelta(ix.disks, q, arg) {
		out = append(out, arg)
	}
	out = dedupSortedInsert(out)
	return out
}

// secondDelta returns min_{j≠skip} Δ_j(q) by a linear scan; it is invoked
// once per query for the single argmin index.
func secondDelta(disks []geom.Disk, q geom.Point, skip int) float64 {
	best := -1.0
	for j, d := range disks {
		if j == skip {
			continue
		}
		v := d.MaxDist(q)
		if best < 0 || v < best {
			best = v
		}
	}
	return best
}

func dedupSortedInsert(xs []int) []int {
	sort.Ints(xs)
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != xs[i-1] {
			out = append(out, x)
		}
	}
	return out
}

// DiscreteIndex answers NN≠0 queries over discrete uncertain points
// (Theorem 3.2). N = Σ k_i locations are indexed once.
type DiscreteIndex struct {
	points []core.DiscretePoint
	hulls  [][]geom.Point
	tree   *kdtree.Tree
}

// NewDiscrete builds the structure in O(N log N).
func NewDiscrete(points []core.DiscretePoint) *DiscreteIndex {
	ix := &DiscreteIndex{points: points}
	ix.hulls = make([][]geom.Point, len(points))
	var items []kdtree.Item
	for i, p := range points {
		ix.hulls[i] = geom.ConvexHull(p.Locs)
		for _, l := range p.Locs {
			items = append(items, kdtree.Item{P: l, ID: i})
		}
	}
	ix.tree = kdtree.Build(items)
	return ix
}

// Delta returns Δ(q) = min_i max_t d(q, p_it), scanning the hulls.
func (ix *DiscreteIndex) Delta(q geom.Point) float64 {
	best := -1.0
	for i := range ix.hulls {
		_, v := geom.FarthestPoint(ix.hulls[i], q)
		if best < 0 || v < best {
			best = v
		}
	}
	return best
}

// Query returns NN≠0(q) in increasing index order.
func (ix *DiscreteIndex) Query(q geom.Point) []int {
	return ix.QueryInto(q, nil)
}

// QueryInto is Query appending into dst (reused from its start).
func (ix *DiscreteIndex) QueryInto(q geom.Point, dst []int) []int {
	dst = dst[:0]
	n := len(ix.points)
	if n == 0 {
		return dst
	}
	if n == 1 {
		return append(dst, 0)
	}
	// Two smallest Δ values, for the degenerate-safe bound.
	min1, min2 := -1.0, -1.0
	arg := -1
	for i := range ix.hulls {
		_, v := geom.FarthestPoint(ix.hulls[i], q)
		switch {
		case min1 < 0 || v < min1:
			min2 = min1
			min1 = v
			arg = i
		case min2 < 0 || v < min2:
			min2 = v
		}
	}
	// Inflate the candidate radius a hair: min1 went through a sqrt, so an
	// owner whose nearest location sits exactly at distance min1 (always
	// true for k = 1) could be lost to roundoff. The exact per-owner test
	// below filters any extra candidates.
	sc := discPool.Get().(*discScratch)
	sc.hits = ix.tree.InDisk(q, min1+1e-9*(1+min1), sc.hits[:0])
	clear(sc.seen)
	for _, h := range sc.hits {
		if _, dup := sc.seen[h.ID]; dup {
			continue
		}
		sc.seen[h.ID] = struct{}{} // owner checked once; δ_i is global per owner
		bound := min1
		if h.ID == arg {
			bound = min2
		}
		if ix.points[h.ID].MinDist(q) < bound {
			dst = append(dst, h.ID)
		}
	}
	discPool.Put(sc)
	sort.Ints(dst)
	return dst
}

// discScratch pools the candidate buffers of DiscreteIndex queries so a
// warm query allocates nothing beyond growing the caller's dst once.
type discScratch struct {
	hits []kdtree.Item
	seen map[int]struct{}
}

var discPool = sync.Pool{New: func() any {
	return &discScratch{seen: make(map[int]struct{})}
}}

// Nearest returns the arg-min disk of Δ and Δ(q) itself — stage 1
// alone, for callers that merge bounds across several structures (the
// logarithmic-method wrapper in pnn).
func (ix *ContinuousIndex) Nearest(q geom.Point) (int, float64) {
	if len(ix.disks) == 0 {
		return -1, math.Inf(1)
	}
	arg, delta, _ := ix.stage1.Nearest(q)
	return arg, delta
}

// ReportMinDistLess appends to dst every disk with δ_i(q) < bound —
// stage-2 reporting under a caller-supplied bound. The appended region
// is in no particular order.
func (ix *ContinuousIndex) ReportMinDistLess(q geom.Point, bound float64, dst []int) []int {
	return ix.stage2.ReportMinDistLess(q, bound, dst)
}

// (DiscreteIndex needs no Nearest counterpart: its stage 1 is a linear
// hull scan either way, so the dynamic layer scans its live members
// directly — see DynamicIndex.delta in the pnn package.)

// ReportMinDistLess appends to dst every owner with δ_i(q) < bound,
// via the location kd-tree under the same fuzzed candidate radius as
// QueryInto, filtered by the exact per-owner test. The appended region
// is in no particular order.
func (ix *DiscreteIndex) ReportMinDistLess(q geom.Point, bound float64, dst []int) []int {
	sc := discPool.Get().(*discScratch)
	sc.hits = ix.tree.InDisk(q, bound+1e-9*(1+bound), sc.hits[:0])
	clear(sc.seen)
	for _, h := range sc.hits {
		if _, dup := sc.seen[h.ID]; dup {
			continue
		}
		sc.seen[h.ID] = struct{}{}
		if ix.points[h.ID].MinDist(q) < bound {
			dst = append(dst, h.ID)
		}
	}
	discPool.Put(sc)
	return dst
}
