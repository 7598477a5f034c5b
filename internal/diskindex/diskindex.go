// Package diskindex reports, for a query point q and bound Δ, every disk
// with δ_i(q) = max(d(q, c_i) − r_i, 0) < Δ — equivalently every
// uncertainty region intersecting the open disk B(q, Δ). It is stage 2 of
// the NN≠0 query structure of Theorem 3.1.
//
// The paper cites the [KMR+16] dynamic structure with O(n polylog n) space
// and O(log n + t) query; that structure has no known implementation. This
// package substitutes a kd-tree over centers augmented with per-subtree
// maximum radius: a subtree is pruned when dist(q, bbox) − maxR ≥ Δ and
// reported wholesale when maxDist(q, bbox) + ... every member qualifies.
// Queries are output-sensitive and logarithmic on bounded-density inputs;
// correctness is unconditional; only the worst-case query bound is given
// up.
package diskindex

import (
	"math"
	"sort"

	"pnn/internal/geom"
)

// Index supports "report all disks with min-distance below a bound".
type Index struct {
	disks []geom.Disk
	nodes []node
	order []int
	root  int
}

type node struct {
	lo, hi      int
	left, right int
	bbox        geom.BBox // of centers
	maxR        float64
}

const leafSize = 8

// Build constructs the index. The disk slice is not copied.
func Build(disks []geom.Disk) *Index {
	idx := &Index{disks: disks, order: make([]int, len(disks))}
	for i := range idx.order {
		idx.order[i] = i
	}
	if len(disks) == 0 {
		idx.root = -1
		return idx
	}
	idx.root = idx.build(0, len(disks))
	return idx
}

func (idx *Index) build(lo, hi int) int {
	bb := geom.EmptyBBox()
	maxR := 0.0
	for i := lo; i < hi; i++ {
		d := idx.disks[idx.order[i]]
		bb = bb.Extend(d.C)
		maxR = math.Max(maxR, d.R)
	}
	ni := len(idx.nodes)
	idx.nodes = append(idx.nodes, node{lo: lo, hi: hi, left: -1, right: -1, bbox: bb, maxR: maxR})
	if hi-lo <= leafSize {
		return ni
	}
	sub := idx.order[lo:hi]
	if bb.Width() >= bb.Height() {
		sort.Slice(sub, func(a, b int) bool { return idx.disks[sub[a]].C.X < idx.disks[sub[b]].C.X })
	} else {
		sort.Slice(sub, func(a, b int) bool { return idx.disks[sub[a]].C.Y < idx.disks[sub[b]].C.Y })
	}
	mid := (lo + hi) / 2
	l := idx.build(lo, mid)
	r := idx.build(mid, hi)
	idx.nodes[ni].left = l
	idx.nodes[ni].right = r
	return ni
}

// ReportMinDistLess appends to dst the indices of all disks with
// δ_i(q) < bound, i.e. d(q, c_i) − r_i < bound.
func (idx *Index) ReportMinDistLess(q geom.Point, bound float64, dst []int) []int {
	if idx.root < 0 {
		return dst
	}
	return idx.report(idx.root, q, bound, dst)
}

func (idx *Index) report(ni int, q geom.Point, bound float64, dst []int) []int {
	n := &idx.nodes[ni]
	// Lower bound on δ over the subtree.
	if n.bbox.DistToPoint(q)-n.maxR >= bound {
		return dst
	}
	if n.left < 0 {
		for i := n.lo; i < n.hi; i++ {
			di := idx.order[i]
			if idx.disks[di].MinDist(q) < bound {
				dst = append(dst, di)
			}
		}
		return dst
	}
	dst = idx.report(n.left, q, bound, dst)
	dst = idx.report(n.right, q, bound, dst)
	return dst
}

// Len returns the number of indexed disks.
func (idx *Index) Len() int { return len(idx.disks) }
