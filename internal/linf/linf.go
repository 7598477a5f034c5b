// Package linf implements the L∞ variant of nonzero-NN search from
// Section 3, Remark (ii) of the paper: uncertainty regions are L∞ balls
// (axis-aligned squares) and distances are Chebyshev. The paper notes the
// two-stage structure carries over — stage 1 computes the L∞ weighted
// envelope Δ∞(q), stage 2 reports axis-aligned squares intersecting a
// query square. Both stages here use a best-first kd-tree with L∞ bounds,
// the same substitution of practical structures for the paper's
// worst-case ones as the L₂ case (see package nnq).
package linf

import (
	"math"
	"sort"

	"pnn/internal/geom"
)

// Square is the closed L∞ ball {x : ‖x − C‖∞ ≤ R}.
type Square struct {
	C geom.Point
	R float64
}

// Dist returns the Chebyshev distance between two points.
func Dist(a, b geom.Point) float64 {
	return math.Max(math.Abs(a.X-b.X), math.Abs(a.Y-b.Y))
}

// MinDist returns δ∞(q) = max(‖q−C‖∞ − R, 0).
func (s Square) MinDist(q geom.Point) float64 {
	return math.Max(Dist(s.C, q)-s.R, 0)
}

// MaxDist returns Δ∞(q) = ‖q−C‖∞ + R.
func (s Square) MaxDist(q geom.Point) float64 {
	return Dist(s.C, q) + s.R
}

// NonzeroSet returns NN≠0(q) under the L∞ metric by direct evaluation of
// Lemma 2.1 (which is metric-agnostic) in O(n), excluding j = i as in the
// L₂ oracle.
func NonzeroSet(squares []Square, q geom.Point) []int {
	return NonzeroSetInto(squares, q, nil)
}

// NonzeroSetInto is NonzeroSet appending into dst (reused from its
// start).
func NonzeroSetInto(squares []Square, q geom.Point, dst []int) []int {
	min1, min2 := math.Inf(1), math.Inf(1)
	argmin := -1
	for j, s := range squares {
		v := s.MaxDist(q)
		switch {
		case v < min1:
			min2 = min1
			min1 = v
			argmin = j
		case v < min2:
			min2 = v
		}
	}
	out := dst[:0]
	for i, s := range squares {
		bound := min1
		if i == argmin {
			bound = min2
		}
		if s.MinDist(q) < bound {
			out = append(out, i)
		}
	}
	return out
}

// Index answers NN≠0 queries under L∞ from a kd-tree over centers with
// per-subtree radius aggregates.
type Index struct {
	squares []Square
	nodes   []node
	order   []int
	root    int
}

type node struct {
	lo, hi      int
	left, right int
	bbox        geom.BBox
	minR, maxR  float64
}

const leafSize = 8

// Build constructs the index in O(n log n).
func Build(squares []Square) *Index {
	ix := &Index{squares: squares, order: make([]int, len(squares))}
	for i := range ix.order {
		ix.order[i] = i
	}
	if len(squares) == 0 {
		ix.root = -1
		return ix
	}
	ix.root = ix.build(0, len(squares))
	return ix
}

func (ix *Index) build(lo, hi int) int {
	bb := geom.EmptyBBox()
	minR, maxR := math.Inf(1), 0.0
	for i := lo; i < hi; i++ {
		s := ix.squares[ix.order[i]]
		bb = bb.Extend(s.C)
		minR = math.Min(minR, s.R)
		maxR = math.Max(maxR, s.R)
	}
	ni := len(ix.nodes)
	ix.nodes = append(ix.nodes, node{lo: lo, hi: hi, left: -1, right: -1, bbox: bb, minR: minR, maxR: maxR})
	if hi-lo <= leafSize {
		return ni
	}
	sub := ix.order[lo:hi]
	if bb.Width() >= bb.Height() {
		sort.Slice(sub, func(a, b int) bool { return ix.squares[sub[a]].C.X < ix.squares[sub[b]].C.X })
	} else {
		sort.Slice(sub, func(a, b int) bool { return ix.squares[sub[a]].C.Y < ix.squares[sub[b]].C.Y })
	}
	mid := (lo + hi) / 2
	l := ix.build(lo, mid)
	r := ix.build(mid, hi)
	ix.nodes[ni].left = l
	ix.nodes[ni].right = r
	return ni
}

// boxDistLInf returns the Chebyshev distance from q to the box (0 inside).
func boxDistLInf(b geom.BBox, q geom.Point) float64 {
	dx := math.Max(0, math.Max(b.MinX-q.X, q.X-b.MaxX))
	dy := math.Max(0, math.Max(b.MinY-q.Y, q.Y-b.MaxY))
	return math.Max(dx, dy)
}

// Delta returns Δ∞(q) = min_i (‖q−c_i‖∞ + r_i).
func (ix *Index) Delta(q geom.Point) float64 {
	_, d := ix.nearest(q)
	return d
}

// nearest returns the arg-min index and Δ∞(q).
func (ix *Index) nearest(q geom.Point) (int, float64) {
	if ix.root < 0 {
		return -1, math.Inf(1)
	}
	arg, best := -1, math.Inf(1)
	ix.delta(ix.root, q, &arg, &best)
	return arg, best
}

func (ix *Index) delta(ni int, q geom.Point, arg *int, best *float64) {
	n := &ix.nodes[ni]
	if boxDistLInf(n.bbox, q)+n.minR >= *best {
		return
	}
	if n.left < 0 {
		for i := n.lo; i < n.hi; i++ {
			si := ix.order[i]
			if v := ix.squares[si].MaxDist(q); v < *best {
				*best = v
				*arg = si
			}
		}
		return
	}
	l, r := n.left, n.right
	dl := boxDistLInf(ix.nodes[l].bbox, q) + ix.nodes[l].minR
	dr := boxDistLInf(ix.nodes[r].bbox, q) + ix.nodes[r].minR
	if dr < dl {
		l, r = r, l
	}
	ix.delta(l, q, arg, best)
	ix.delta(r, q, arg, best)
}

// Query returns NN≠0(q) under L∞ in increasing index order.
func (ix *Index) Query(q geom.Point) []int {
	return ix.QueryInto(q, nil)
}

// QueryInto is Query appending into dst (reused from its start) — the
// caller-buffer variant for allocation-flat query loops.
func (ix *Index) QueryInto(q geom.Point, dst []int) []int {
	dst = dst[:0]
	if len(ix.squares) == 0 {
		return dst
	}
	if len(ix.squares) == 1 {
		return append(dst, 0)
	}
	arg, delta := ix.nearest(q)
	out := dst
	ix.report(ix.root, q, delta, &out)
	// Degenerate zero-size regions: the arg-min square reports itself
	// whenever its radius is positive; only when it failed (δ = Δ) does
	// Lemma 2.1's j ≠ i exclusion require the second-minimum scan.
	if arg >= 0 && ix.squares[arg].MinDist(q) >= delta {
		second := math.Inf(1)
		for j, s := range ix.squares {
			if j != arg {
				second = math.Min(second, s.MaxDist(q))
			}
		}
		if ix.squares[arg].MinDist(q) < second {
			out = append(out, arg)
		}
	}
	sort.Ints(out)
	return out
}

func (ix *Index) report(ni int, q geom.Point, bound float64, out *[]int) {
	n := &ix.nodes[ni]
	if boxDistLInf(n.bbox, q)-n.maxR >= bound {
		return
	}
	if n.left < 0 {
		for i := n.lo; i < n.hi; i++ {
			si := ix.order[i]
			if ix.squares[si].MinDist(q) < bound {
				*out = append(*out, si)
			}
		}
		return
	}
	ix.report(n.left, q, bound, out)
	ix.report(n.right, q, bound, out)
}

// Nearest returns the arg-min square of Δ∞ and Δ∞(q) itself — the
// stage-1 bound alone, for callers that merge bounds across several
// structures (the logarithmic-method wrapper in pnn).
func (ix *Index) Nearest(q geom.Point) (int, float64) {
	return ix.nearest(q)
}

// ReportMinDistLess appends to dst every square with δ∞_i(q) < bound —
// stage-2 reporting under a caller-supplied bound. The appended region
// is in no particular order.
func (ix *Index) ReportMinDistLess(q geom.Point, bound float64, dst []int) []int {
	if ix.root < 0 {
		return dst
	}
	out := dst
	ix.report(ix.root, q, bound, &out)
	return out
}
