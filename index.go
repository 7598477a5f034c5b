package pnn

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"

	"pnn/internal/baseline"
	"pnn/internal/core"
	"pnn/internal/geom"
	"pnn/internal/linf"
	"pnn/internal/nnq"
	"pnn/internal/quantify"
)

// ErrUnsupported reports a query or option combination the chosen data
// kind cannot answer (for example quantification probabilities under the
// L∞ metric, or a V_Pr diagram over continuous points).
var ErrUnsupported = errors.New("pnn: unsupported for this configuration")

// ErrInvalidParam reports a query parameter outside its domain: a
// negative k for TopK, or a NaN/±Inf tau for Threshold.
var ErrInvalidParam = errors.New("pnn: invalid query parameter")

// UncertainSet is the common interface of the three uncertain-point
// kinds — ContinuousSet (disk supports), DiscreteSet (weighted
// locations), and SquareSet (L∞ squares). It is satisfied only by types
// in this package; construct values with NewContinuousSet,
// NewDiscreteSet, or NewSquareSet and hand them to New.
type UncertainSet interface {
	// Len returns the number of uncertain points.
	Len() int
	// defaultMetric seals the interface and infers the metric.
	defaultMetric() Metric
}

func (s *ContinuousSet) defaultMetric() Metric { return L2 }
func (s *DiscreteSet) defaultMetric() Metric   { return L2 }
func (s *SquareSet) defaultMetric() Metric     { return Linf }

// Index is the unified query engine over one uncertain-point set: a
// single facade in front of every structure in the paper. Construct it
// with New; select metric, NN≠0 backend, and probability engine with
// options. All query methods are safe for concurrent use — every
// randomized component is preprocessed at construction time.
type Index struct {
	set    UncertainSet
	n      int
	metric Metric
	cfg    config

	// eps is the additive query accuracy of approximate quantifiers
	// (0 for exact engines and explicit-budget Monte Carlo, whose error
	// is not declared up front).
	eps float64
	// twoSided is true when the quantifier's error band is |π̂ − π| ≤ ε
	// (Monte Carlo) rather than one-sided π̂ ≤ π ≤ π̂ + ε (spiral).
	twoSided bool

	// nonzero appends NN≠0(q) into dst from its start; a nil dst gets a
	// fresh caller-owned slice.
	nonzero func(q geom.Point, dst []int) []int
	probs   func(Point) []float64 // nil when unsupported
	// probsInto, when non-nil, writes π(q) into a caller buffer of
	// length Len() instead of allocating it.
	probsInto func(q Point, pi []float64) []float64
	// sparseInto, when non-nil, appends the entries with π_i(q) > 0 into
	// dst in increasing index order without ever materializing the
	// N-length vector — the engine-native sparse answer (Monte Carlo
	// touches ≤ s owners, spiral search m(ρ,ε) locations, the exact
	// discrete sweep the Lemma 2.1 window). Engines without a native
	// sparse answer leave it nil and the facade derives the same
	// entries from the dense vector through pooled scratch.
	sparseInto func(q Point, dst []quantify.IndexProb) []quantify.IndexProb
	expected   func(Point) (int, float64) // nil when unsupported

	// piScratch pools Len()-length π vectors for the dense fallbacks of
	// the ranked/filtered queries; ipScratch pools the sparse-entry
	// staging buffers. Both keep the steady-state query surface
	// allocation-flat: only the caller-owned results are allocated.
	piScratch sync.Pool
	ipScratch sync.Pool
}

// New builds the unified query engine for any uncertain-point kind:
//
//	idx, err := pnn.New(set,
//	    pnn.WithNonzeroBackend(pnn.BackendIndex),
//	    pnn.WithQuantifier(pnn.SpiralSearch(0.01)),
//	    pnn.WithSeed(7))
//
// The zero-option call pnn.New(set) gives an exact probability engine
// over the near-linear NN≠0 index of Section 3.
func New(data UncertainSet, opts ...Option) (*Index, error) {
	if data == nil {
		return nil, errors.New("pnn: nil uncertain set")
	}
	if data.Len() == 0 {
		return nil, errors.New("pnn: empty uncertain set")
	}
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	if !cfg.metricSet {
		cfg.metric = data.defaultMetric()
	}
	if cfg.metric != data.defaultMetric() {
		return nil, fmt.Errorf("pnn: metric %v is incompatible with %T: %w",
			cfg.metric, data, ErrUnsupported)
	}
	ix := &Index{set: data, n: data.Len(), metric: cfg.metric, cfg: cfg}
	var err error
	switch s := data.(type) {
	case *ContinuousSet:
		err = ix.buildContinuous(s)
	case *DiscreteSet:
		err = ix.buildDiscrete(s)
	case *SquareSet:
		err = ix.buildSquare(s)
	default:
		err = fmt.Errorf("pnn: unknown uncertain set %T: %w", data, ErrUnsupported)
	}
	if err != nil {
		return nil, err
	}
	n := ix.n
	ix.piScratch.New = func() any {
		s := make([]float64, n)
		return &s
	}
	ix.ipScratch.New = func() any { return new(ipBuf) }
	return ix, nil
}

// ipBuf is one pooled sparse-entry staging buffer.
type ipBuf struct {
	entries []quantify.IndexProb
}

// sortByProb ranks entries by decreasing probability, ties broken by
// increasing index — the same strict total order quantify.TopK applies
// to the dense vector, so sparse and dense rankings are identical.
func sortByProb(entries []quantify.IndexProb) {
	slices.SortFunc(entries, func(a, b quantify.IndexProb) int {
		if a.P != b.P {
			return cmp.Compare(b.P, a.P)
		}
		return cmp.Compare(a.I, b.I)
	})
}

// sparseEntries appends the entries with π_i(q) > 0 to dst in increasing
// index order: the engine-native sparse answer when available, otherwise
// the dense vector (through pooled scratch where the engine supports a
// caller buffer) filtered down. Every path reports probabilities bitwise
// identical to Probabilities(q).
func (ix *Index) sparseEntries(q Point, dst []quantify.IndexProb) []quantify.IndexProb {
	if ix.sparseInto != nil {
		return ix.sparseInto(q, dst)
	}
	if ix.probsInto != nil {
		bp := ix.piScratch.Get().(*[]float64)
		pi := ix.probsInto(q, *bp)
		dst = quantify.PositiveInto(pi, 0, dst)
		*bp = pi
		ix.piScratch.Put(bp)
		return dst
	}
	return quantify.PositiveInto(ix.probs(q), 0, dst)
}

func (ix *Index) getIP() *ipBuf  { return ix.ipScratch.Get().(*ipBuf) }
func (ix *Index) putIP(b *ipBuf) { ix.ipScratch.Put(b) }

func (ix *Index) rng() *rand.Rand {
	if ix.cfg.src != nil {
		return rand.New(ix.cfg.src)
	}
	return rand.New(rand.NewSource(ix.cfg.seed))
}

// useMonteCarlo wires a Monte Carlo estimator into all three probability
// slots: dense, dense-into, and the native sparse answer (≤ s entries).
func (ix *Index) useMonteCarlo(mc *quantify.MonteCarlo) {
	ix.probs = func(p Point) []float64 { return mc.Estimate(toGeom(p)) }
	ix.probsInto = func(p Point, pi []float64) []float64 {
		return mc.EstimateInto(toGeom(p), pi)
	}
	ix.sparseInto = func(p Point, dst []quantify.IndexProb) []quantify.IndexProb {
		return mc.EstimatePositiveInto(toGeom(p), dst)
	}
}

// useSpiral wires a spiral-search estimator into all three probability
// slots (the sparse answer touches only the m(ρ,ε) retrieved locations).
func (ix *Index) useSpiral(sp *quantify.Spiral, eps float64) {
	ix.probs = func(p Point) []float64 { return sp.Estimate(toGeom(p), eps) }
	ix.probsInto = func(p Point, pi []float64) []float64 {
		return sp.EstimateInto(toGeom(p), eps, pi)
	}
	ix.sparseInto = func(p Point, dst []quantify.IndexProb) []quantify.IndexProb {
		return sp.EstimatePositiveInto(toGeom(p), eps, dst)
	}
}

func (ix *Index) buildContinuous(s *ContinuousSet) error {
	switch ix.cfg.backend {
	case BackendDirect:
		ix.nonzero = func(q geom.Point, dst []int) []int { return core.NonzeroSetInto(s.disks, q, dst) }
	case BackendDiagram:
		ix.nonzero = core.BuildDiagram(s.disks, core.DiagramOptions{}).QueryInto
	default:
		ix.nonzero = nnq.NewContinuous(s.disks).QueryInto
	}
	panels := ix.cfg.panels
	switch q := ix.cfg.quant; q.kind {
	case quantExact:
		// No exact algorithm exists for continuous inputs; Eq. (1) is
		// integrated numerically (the [CKP04]-style baseline).
		ix.probs = func(p Point) []float64 { return baseline.IntegrateAll(s.conts, toGeom(p), panels) }
	case quantMonteCarlo:
		ix.eps = q.eps
		ix.twoSided = true
		rounds := quantify.SampleCountContinuous(s.Len(), q.eps, q.delta)
		ix.useMonteCarlo(quantify.NewMonteCarloContinuous(s.conts, rounds, ix.rng()))
	case quantMonteCarloBudget:
		ix.useMonteCarlo(quantify.NewMonteCarloContinuous(s.conts, q.rounds, ix.rng()))
	case quantSpiral:
		ix.eps = q.eps
		// The Lemma 4.4 discretization adds a two-sided sampling term to
		// the spiral's one-sided ε, so the continuous composition cannot
		// certify thresholds one-sidedly; classify conservatively.
		ix.twoSided = true
		sc := quantify.NewSpiralContinuous(s.conts, ix.cfg.spiralSamples, ix.rng())
		ix.useSpiral(sc.Spiral, q.eps)
	case quantVPr:
		return fmt.Errorf("pnn: VPrDiagram requires discrete points: %w", ErrUnsupported)
	}
	ix.expected = func(p Point) (int, float64) {
		return quantify.ExpectedNNContinuous(s.conts, toGeom(p), panels)
	}
	return nil
}

func (ix *Index) buildDiscrete(s *DiscreteSet) error {
	switch ix.cfg.backend {
	case BackendDirect:
		// Derive the supports when a query runs, never here: every
		// DynamicIndex view is built with this backend and never asks it
		// for NN≠0.
		ix.nonzero = func(q geom.Point, dst []int) []int {
			return core.NonzeroSetDiscreteInto(s.derived().sups, q, dst)
		}
	case BackendDiagram:
		ix.nonzero = core.BuildDiscreteDiagram(s.derived().sups, core.DiscreteDiagramOptions{}).QueryInto
	default:
		ix.nonzero = nnq.NewDiscrete(s.derived().sups).QueryInto
	}
	switch q := ix.cfg.quant; q.kind {
	case quantExact:
		// All three slots run the Lemma 2.1 window kernel; the sparse
		// answer never touches an N-length vector.
		ix.probs = func(p Point) []float64 { return quantify.ExactAll(s.dists, toGeom(p)) }
		ix.probsInto = func(p Point, pi []float64) []float64 {
			return quantify.ExactAllInto(s.dists, toGeom(p), pi)
		}
		ix.sparseInto = func(p Point, dst []quantify.IndexProb) []quantify.IndexProb {
			return quantify.ExactPositiveInto(s.dists, toGeom(p), dst)
		}
	case quantMonteCarlo:
		ix.eps = q.eps
		ix.twoSided = true
		rounds := quantify.SampleCountDiscrete(s.Len(), s.K(), q.eps, q.delta)
		ix.useMonteCarlo(quantify.NewMonteCarloDiscrete(s.dists, rounds, ix.rng()))
	case quantMonteCarloBudget:
		ix.useMonteCarlo(quantify.NewMonteCarloDiscrete(s.dists, q.rounds, ix.rng()))
	case quantSpiral:
		ix.eps = q.eps
		ix.useSpiral(quantify.NewSpiral(s.dists), q.eps)
	case quantVPr:
		box := geom.BBox{MinX: q.minX, MinY: q.minY, MaxX: q.maxX, MaxY: q.maxY}
		v := quantify.NewVPr(s.dists, box)
		// V_Pr stores one vector per diagram face; copy so callers can
		// mutate results without corrupting the cache (and so batch
		// results never alias each other).
		ix.probs = func(p Point) []float64 {
			pi := v.Query(toGeom(p))
			out := make([]float64, len(pi))
			copy(out, pi)
			return out
		}
		ix.probsInto = func(p Point, pi []float64) []float64 {
			pi = pi[:0]
			return append(pi, v.Query(toGeom(p))...)
		}
	}
	ix.expected = func(p Point) (int, float64) { return quantify.ExpectedNNDiscrete(s.dists, toGeom(p)) }
	return nil
}

func (ix *Index) buildSquare(s *SquareSet) error {
	switch ix.cfg.backend {
	case BackendDirect:
		ix.nonzero = func(q geom.Point, dst []int) []int { return linf.NonzeroSetInto(s.squares, q, dst) }
	case BackendDiagram:
		return fmt.Errorf("pnn: no diagram backend under L∞: %w", ErrUnsupported)
	default:
		ix.nonzero = linf.Build(s.squares).QueryInto
	}
	// Quantification over square regions is an open extension; NN≠0 is
	// the query family §3 Remark (ii) supports. Reject an explicitly
	// requested quantifier here rather than at query time.
	if ix.cfg.quantSet {
		return fmt.Errorf("pnn: no quantifier available under L∞: %w", ErrUnsupported)
	}
	return nil
}

// Len returns the number of uncertain points.
func (ix *Index) Len() int { return ix.n }

// Metric returns the metric the engine answers under.
func (ix *Index) Metric() Metric { return ix.metric }

// Eps returns the additive query accuracy of the configured quantifier
// (0 for exact engines).
func (ix *Index) Eps() float64 { return ix.eps }

// Nonzero returns NN≠0(q): the indices with a nonzero probability of
// being the nearest neighbor of q, in increasing order. The slice is
// caller-owned (as are all Index results): mutating it never affects
// later queries.
func (ix *Index) Nonzero(q Point) ([]int, error) {
	return ix.nonzero(toGeom(q), nil), nil
}

// NonzeroInto is Nonzero appending into buf (reused from its start,
// grown as needed) — the caller-buffer variant for allocation-flat query
// loops. The returned slice shares buf's memory and is only valid until
// the next NonzeroInto call with the same buffer.
func (ix *Index) NonzeroInto(q Point, buf []int) ([]int, error) {
	return ix.nonzero(toGeom(q), buf), nil
}

// Probabilities returns π_i(q) for every point, computed by the
// configured quantifier. For approximate quantifiers the vector carries
// the engine's documented error guarantee (see Eps).
func (ix *Index) Probabilities(q Point) ([]float64, error) {
	if ix.probs == nil {
		return nil, fmt.Errorf("pnn: no quantifier for %T: %w", ix.set, ErrUnsupported)
	}
	return ix.probs(q), nil
}

// ProbabilitiesInto is Probabilities writing into buf (resized to Len(),
// grown as needed) — the caller-buffer variant for allocation-flat query
// loops. The returned slice shares buf's memory and is only valid until
// the next ProbabilitiesInto call with the same buffer.
func (ix *Index) ProbabilitiesInto(q Point, buf []float64) ([]float64, error) {
	if ix.probs == nil {
		return nil, fmt.Errorf("pnn: no quantifier for %T: %w", ix.set, ErrUnsupported)
	}
	if cap(buf) < ix.n {
		buf = make([]float64, ix.n)
	}
	buf = buf[:ix.n]
	if ix.probsInto != nil {
		return ix.probsInto(q, buf), nil
	}
	copy(buf, ix.probs(q))
	return buf, nil
}

// PositiveProbabilities reports only the points with π_i(q) > eps, in
// increasing index order. This is the sparse hot path: approximate
// engines answer it natively (Monte Carlo reports at most s entries,
// spiral search inspects only m(ρ,ε) locations — Theorems 4.3/4.7)
// without ever materializing the N-length vector. Negative eps is
// treated as 0 — only strictly positive probabilities are ever reported.
func (ix *Index) PositiveProbabilities(q Point, eps float64) ([]IndexProb, error) {
	if ix.probs == nil {
		return nil, fmt.Errorf("pnn: no quantifier for %T: %w", ix.set, ErrUnsupported)
	}
	b := ix.getIP()
	b.entries = ix.sparseEntries(q, b.entries)
	n := 0
	for _, e := range b.entries {
		if e.P > eps {
			n++
		}
	}
	out := make([]IndexProb, 0, n)
	for _, e := range b.entries {
		if e.P > eps {
			out = append(out, IndexProb{Index: e.I, Prob: e.P})
		}
	}
	ix.putIP(b)
	return out, nil
}

// TopK returns the k most probable nearest neighbors in decreasing
// probability order, ties broken by index — the probability-ranking
// variant of the kNN problem surveyed in §1.2. Only points with
// π_i(q) > 0 are ranked, so fewer than k entries may be returned.
//
// Edge semantics, identical through QueryBatchOps and the HTTP surface:
// k < 0 fails with ErrInvalidParam, k == 0 returns an empty ranking, and
// k > Len() clamps to the points with positive probability.
//
// Like PositiveProbabilities this runs on the sparse path: approximate
// engines rank their native sparse answers and never allocate the
// N-length vector.
func (ix *Index) TopK(q Point, k int) ([]IndexProb, error) {
	if ix.probs == nil {
		return nil, fmt.Errorf("pnn: no quantifier for %T: %w", ix.set, ErrUnsupported)
	}
	if k < 0 {
		return nil, fmt.Errorf("pnn: k must be non-negative, got %d: %w", k, ErrInvalidParam)
	}
	if k == 0 {
		return nil, nil
	}
	b := ix.getIP()
	b.entries = ix.sparseEntries(q, b.entries)
	sortByProb(b.entries)
	if k > len(b.entries) {
		k = len(b.entries)
	}
	out := make([]IndexProb, k)
	for i := 0; i < k; i++ {
		out[i] = IndexProb{Index: b.entries[i].I, Prob: b.entries[i].P}
	}
	ix.putIP(b)
	return out, nil
}

// Threshold classifies points against the probability threshold tau —
// the [DYM+05] variant of §1.2. Certain points satisfy π_i(q) ≥ tau
// under the quantifier's guarantee; the undecidable band is reported as
// Possible. Zero-probability points are never Certain: under an exact
// engine, tau ≤ 0 certifies exactly the points with π̂_i(q) > 0. For
// approximate engines the error band still applies at tau ≤ 0 —
// estimates the engine cannot certify (π̂ < ε for two-sided Monte Carlo,
// and every π̂ = 0, whose true probability may reach ε) land in Possible
// instead. A NaN or ±Inf tau fails with ErrInvalidParam.
//
// The classification follows the quantifier's error shape: exact engines
// compare directly (empty Possible); the one-sided SpiralSearch
// certifies π̂_i ≥ tau and leaves π̂_i < tau ≤ π̂_i + ε possible; the
// two-sided MonteCarlo(eps, delta) certifies only π̂_i − ε ≥ tau and
// leaves |π̂_i − tau| < ε possible (with probability 1 − δ). SpiralSearch
// over continuous points composes with the Lemma 4.4 discretization,
// whose sampling term is two-sided, so it is classified like Monte Carlo
// (and the certification is still only as good as the sample budget —
// see WithSpiralSamples). MonteCarloBudget declares no ε, so its
// estimates are compared directly like an exact engine — treat its
// Certain set as approximate.
//
// For tau > Eps() the classification runs on the sparse path (points
// with π̂ = 0 can be neither Certain nor Possible there); only
// 0 < tau ≤ Eps() needs the dense vector, which then comes from pooled
// scratch.
func (ix *Index) Threshold(q Point, tau float64) (ThresholdResult, error) {
	if ix.probs == nil {
		return ThresholdResult{}, fmt.Errorf("pnn: no quantifier for %T: %w", ix.set, ErrUnsupported)
	}
	if math.IsNaN(tau) || math.IsInf(tau, 0) {
		return ThresholdResult{}, fmt.Errorf("pnn: tau must be finite, got %g: %w", tau, ErrInvalidParam)
	}
	if ix.eps > 0 && tau <= ix.eps {
		return ix.thresholdDense(q, tau), nil
	}
	lo := tau // π̂ threshold certifying π ≥ tau
	if ix.twoSided {
		lo = tau + ix.eps
	}
	var res ThresholdResult
	b := ix.getIP()
	b.entries = ix.sparseEntries(q, b.entries)
	// Two passes: count, then fill exact-size slices, so the answer costs
	// at most one allocation per non-empty class.
	var nc, np int
	for _, e := range b.entries {
		switch {
		case e.P >= lo:
			nc++
		case ix.eps > 0 && e.P+ix.eps >= tau:
			np++
		}
	}
	if nc > 0 {
		res.Certain = make([]int, 0, nc)
	}
	if np > 0 {
		res.Possible = make([]int, 0, np)
	}
	for _, e := range b.entries {
		switch {
		case e.P >= lo:
			res.Certain = append(res.Certain, e.I)
		case ix.eps > 0 && e.P+ix.eps >= tau:
			res.Possible = append(res.Possible, e.I)
		}
	}
	ix.putIP(b)
	return res, nil
}

// thresholdDense classifies against the full π vector (from pooled
// scratch when the engine writes into caller buffers). It is the
// reference the sparse branch of Threshold must agree with wherever both
// apply, and the only branch that can report zero-estimate points as
// Possible (which happens exactly when 0 < tau ≤ eps, or tau ≤ 0 with an
// approximate engine).
func (ix *Index) thresholdDense(q Point, tau float64) ThresholdResult {
	var pi []float64
	var bp *[]float64
	if ix.probsInto != nil {
		bp = ix.piScratch.Get().(*[]float64)
		pi = ix.probsInto(q, *bp)
	} else {
		pi = ix.probs(q)
	}
	lo := tau
	if ix.twoSided {
		lo = tau + ix.eps
	}
	var res ThresholdResult
	for i, p := range pi {
		switch {
		case p > 0 && p >= lo:
			res.Certain = append(res.Certain, i)
		case ix.eps > 0 && p+ix.eps >= tau:
			res.Possible = append(res.Possible, i)
		}
	}
	if bp != nil {
		*bp = pi
		ix.piScratch.Put(bp)
	}
	return res
}

// ExpectedNN returns the index minimizing the expected distance
// E[d(q, P_i)] and that minimum — the cheaper NN notion of [AESZ12]
// that §1.2 contrasts with quantification probabilities.
func (ix *Index) ExpectedNN(q Point) (int, float64, error) {
	if ix.expected == nil {
		return -1, 0, fmt.Errorf("pnn: expected distance undefined for %T: %w", ix.set, ErrUnsupported)
	}
	i, d := ix.expected(q)
	return i, d, nil
}
