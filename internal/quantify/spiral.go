package quantify

import (
	"math"
	"sync"

	"pnn/internal/dist"
	"pnn/internal/geom"
	"pnn/internal/kdtree"
	"pnn/internal/quadtree"
)

// Spiral is the deterministic approximation of Section 4.3: retrieve the
// m(ρ, ε) locations of S = ∪P_i nearest to q and evaluate Eq. (2) on that
// subset. Lemma 4.6 guarantees the one-sided error
// π̂_i(q) ≤ π_i(q) ≤ π̂_i(q) + ε. Preprocessing is O(N log N), queries run
// in O(m log N + m log m) with m = m(ρ, ε) — the paper's
// O(ρk log(ρ/ε) + log N) with the kd-tree k-NN standing in for the [AC09]
// structure (exact answers, expected rather than worst-case query time).
type Spiral struct {
	k       int     // max description complexity
	rho     float64 // spread of location probabilities (Eq. 9)
	backend knnBackend
	locs    []Location
}

// knnBackend retrieves the indices (into locs) of the k locations nearest
// to q. Remark (ii) after Theorem 4.7 discusses backend choices; both the
// kd-tree default and the [Har11]-style quadtree are provided and
// benchmarked against each other. kNearestInto appends into dst (reused
// from its start) using items as item scratch; the kd-tree backend runs
// it allocation-free over pooled buffers, while the experiments-only
// quadtree backend still allocates inside its best-first KNearest (its
// container/heap search has not been given the pooled treatment).
type knnBackend interface {
	kNearestInto(q geom.Point, k int, dst []int, items []kdtree.Item) ([]int, []kdtree.Item)
}

type kdBackend struct{ t *kdtree.Tree }

func (b kdBackend) kNearestInto(q geom.Point, k int, dst []int, items []kdtree.Item) ([]int, []kdtree.Item) {
	items = b.t.KNearestInto(q, k, items)
	dst = dst[:0]
	for _, it := range items {
		dst = append(dst, it.ID)
	}
	return dst, items
}

type quadBackend struct{ t *quadtree.Tree }

func (b quadBackend) kNearestInto(q geom.Point, k int, dst []int, items []kdtree.Item) ([]int, []kdtree.Item) {
	dst = dst[:0]
	for _, it := range b.t.KNearest(q, k) {
		dst = append(dst, it.ID)
	}
	return dst, items
}

// NewSpiral preprocesses the uncertain points with the kd-tree backend.
func NewSpiral(pts []*dist.Discrete) *Spiral {
	s := newSpiralCommon(pts)
	items := make([]kdtree.Item, len(s.locs))
	for i, l := range s.locs {
		items[i] = kdtree.Item{P: l.P, ID: i}
	}
	s.backend = kdBackend{kdtree.Build(items)}
	return s
}

// NewSpiralQuadtree preprocesses with the quadtree backend of Remark (ii).
func NewSpiralQuadtree(pts []*dist.Discrete) *Spiral {
	s := newSpiralCommon(pts)
	items := make([]quadtree.Item, len(s.locs))
	for i, l := range s.locs {
		items[i] = quadtree.Item{P: l.P, ID: i}
	}
	s.backend = quadBackend{quadtree.Build(items)}
	return s
}

func newSpiralCommon(pts []*dist.Discrete) *Spiral {
	s := &Spiral{locs: Flatten(pts)}
	wmin, wmax := math.Inf(1), 0.0
	for _, p := range pts {
		if p.K() > s.k {
			s.k = p.K()
		}
		for _, w := range p.W {
			wmin = math.Min(wmin, w)
			wmax = math.Max(wmax, w)
		}
	}
	if wmin > 0 {
		s.rho = wmax / wmin
	} else {
		s.rho = 1
	}
	return s
}

// Rho returns the spread ρ of location probabilities.
func (s *Spiral) Rho() float64 { return s.rho }

// M returns m(ρ, ε) = ⌈ρk·ln(ρ/ε)⌉ + k − 1, the retrieval size Theorem 4.7
// prescribes (capped at N). The bound is compared in float before it
// becomes an int: a large weight spread ρ puts it past the int range.
func (s *Spiral) M(eps float64) int {
	if eps <= 0 || eps >= 1 {
		eps = 0.5
	}
	m := math.Ceil(s.rho*float64(s.k)*math.Log(s.rho/eps)) + float64(s.k-1)
	if m >= float64(len(s.locs)) {
		return len(s.locs)
	}
	return max(int(m), s.k)
}

// spiralScratch holds the pooled retrieval buffers of the sparse spiral
// query path: m location indices and the m-length location subset.
type spiralScratch struct {
	near  []int
	items []kdtree.Item
	sub   []Location
}

var spiralPool = sync.Pool{New: func() any { return new(spiralScratch) }}

// retrieve fills sc with the m(ρ,ε) locations nearest to q.
func (s *Spiral) retrieve(q geom.Point, eps float64, sc *spiralScratch) {
	m := s.M(eps)
	sc.near, sc.items = s.backend.kNearestInto(q, m, sc.near, sc.items)
	sc.sub = sc.sub[:0]
	for _, li := range sc.near {
		sc.sub = append(sc.sub, s.locs[li])
	}
}

// EstimatePositiveInto appends the points with positive estimates to
// dst (reused from its start) in increasing index order. Each estimate
// has additive error at most ε: π̂_i ≤ π_i ≤ π̂_i + ε. Only the m(ρ,ε)
// retrieved locations are touched, so at most that many points are
// reported and no N-length vector exists anywhere.
func (s *Spiral) EstimatePositiveInto(q geom.Point, eps float64, dst []IndexProb) []IndexProb {
	sc := spiralPool.Get().(*spiralScratch)
	s.retrieve(q, eps, sc)
	dst = ExactSubsetPositiveInto(sc.sub, q, dst)
	spiralPool.Put(sc)
	return dst
}
