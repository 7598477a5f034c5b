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

// ErrInvalidParam reports a parameter outside its domain: a quantifier
// whose eps or delta is not in (0, 1) or whose round budget is below 1,
// a negative k for TopK, a NaN/±Inf tau for Threshold, or a NaN eps for
// PositiveProbabilities.
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
	// positive appends the entries with π_i(q) > 0 to dst (reused from
	// its start) in increasing index order; nil when the data kind has no
	// quantifier. Every probability query answers from it: the engines
	// answer sparsely (Monte Carlo touches ≤ s owners, spiral search
	// m(ρ,ε) locations, the exact discrete sweep the Lemma 2.1 window),
	// and the natively dense V_Pr and continuous integration are filtered.
	positive func(q geom.Point, dst []quantify.IndexProb) []quantify.IndexProb
	expected func(Point) (int, float64) // nil when unsupported

	// ipScratch pools the entry staging buffers, so a query allocates
	// only its caller-owned result.
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
	if err := cfg.validate(); err != nil {
		return nil, err
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

// entries returns a pooled buffer holding the entries with π_i(q) > 0;
// the caller hands it back with putIP.
func (ix *Index) entries(q Point) *ipBuf {
	b := ix.ipScratch.Get().(*ipBuf)
	b.entries = ix.positive(toGeom(q), b.entries)
	return b
}

func (ix *Index) putIP(b *ipBuf) { ix.ipScratch.Put(b) }

func (ix *Index) rng() *rand.Rand {
	if ix.cfg.src != nil {
		return rand.New(ix.cfg.src)
	}
	return rand.New(rand.NewSource(ix.cfg.seed))
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
		ix.positive = func(p geom.Point, dst []quantify.IndexProb) []quantify.IndexProb {
			return quantify.PositiveInto(baseline.IntegrateAll(s.conts, p, panels), 0, dst)
		}
	case quantMonteCarlo:
		ix.eps = q.eps
		ix.twoSided = true
		rounds := quantify.SampleCountContinuous(s.Len(), q.eps, q.delta)
		ix.positive = quantify.NewMonteCarloContinuous(s.conts, rounds, ix.rng()).EstimatePositiveInto
	case quantMonteCarloBudget:
		ix.positive = quantify.NewMonteCarloContinuous(s.conts, q.rounds, ix.rng()).EstimatePositiveInto
	case quantSpiral:
		ix.eps = q.eps
		// The Lemma 4.4 discretization adds a two-sided sampling term to
		// the spiral's one-sided ε, so the continuous composition cannot
		// certify thresholds one-sidedly; classify conservatively.
		ix.twoSided = true
		sc := quantify.NewSpiralContinuous(s.conts, ix.cfg.spiralSamples, ix.rng())
		ix.positive = func(p geom.Point, dst []quantify.IndexProb) []quantify.IndexProb {
			return sc.EstimatePositiveInto(p, q.eps, dst)
		}
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
		// The Lemma 2.1 window kernel never touches an N-length vector.
		ix.positive = func(p geom.Point, dst []quantify.IndexProb) []quantify.IndexProb {
			return quantify.ExactPositiveInto(s.dists, p, dst)
		}
	case quantMonteCarlo:
		ix.eps = q.eps
		ix.twoSided = true
		rounds := quantify.SampleCountDiscrete(s.Len(), s.K(), q.eps, q.delta)
		ix.positive = quantify.NewMonteCarloDiscrete(s.dists, rounds, ix.rng()).EstimatePositiveInto
	case quantMonteCarloBudget:
		ix.positive = quantify.NewMonteCarloDiscrete(s.dists, q.rounds, ix.rng()).EstimatePositiveInto
	case quantSpiral:
		ix.eps = q.eps
		sp := quantify.NewSpiral(s.dists)
		ix.positive = func(p geom.Point, dst []quantify.IndexProb) []quantify.IndexProb {
			return sp.EstimatePositiveInto(p, q.eps, dst)
		}
	case quantVPr:
		box := geom.BBox{MinX: q.minX, MinY: q.minY, MaxX: q.maxX, MaxY: q.maxY}
		v := quantify.NewVPr(s.dists, box)
		// V_Pr stores one vector per diagram face; reading it through the
		// entries means no result ever aliases the cache.
		ix.positive = func(p geom.Point, dst []quantify.IndexProb) []quantify.IndexProb {
			return quantify.PositiveInto(v.Query(p), 0, dst)
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
	if ix.positive == nil {
		return nil, fmt.Errorf("pnn: no quantifier for %T: %w", ix.set, ErrUnsupported)
	}
	b := ix.entries(q)
	pi := quantify.Scatter(ix.n, b.entries)
	ix.putIP(b)
	return pi, nil
}

// PositiveProbabilities reports only the points with π_i(q) > eps, in
// increasing index order. The Monte Carlo, spiral and exact discrete
// engines answer it without the N-length vector: Monte Carlo reports at
// most s entries and spiral search inspects only m(ρ,ε) locations
// (Theorems 4.3/4.7). Negative eps is treated as 0 — only strictly
// positive probabilities are ever reported; a NaN eps fails with
// ErrInvalidParam.
func (ix *Index) PositiveProbabilities(q Point, eps float64) ([]IndexProb, error) {
	if ix.positive == nil {
		return nil, fmt.Errorf("pnn: no quantifier for %T: %w", ix.set, ErrUnsupported)
	}
	if math.IsNaN(eps) {
		return nil, errNaNEps
	}
	b := ix.entries(q)
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

// errNaNEps is the error of PositiveProbabilities for a NaN eps.
var errNaNEps = fmt.Errorf("pnn: eps must not be NaN: %w", ErrInvalidParam)

// TopK returns the k most probable nearest neighbors in decreasing
// probability order, ties broken by index — the probability-ranking
// variant of the kNN problem surveyed in §1.2. Only points with
// π_i(q) > 0 are ranked, so fewer than k entries may be returned.
//
// Edge semantics, identical through QueryBatchOps and the HTTP surface:
// k < 0 fails with ErrInvalidParam, k == 0 returns an empty ranking, and
// k > Len() clamps to the points with positive probability.
//
// Like PositiveProbabilities this ranks only the entries with
// π_i(q) > 0, so it allocates only the caller-owned result.
func (ix *Index) TopK(q Point, k int) ([]IndexProb, error) {
	if ix.positive == nil {
		return nil, fmt.Errorf("pnn: no quantifier for %T: %w", ix.set, ErrUnsupported)
	}
	if k < 0 {
		return nil, fmt.Errorf("pnn: k must be non-negative, got %d: %w", k, ErrInvalidParam)
	}
	if k == 0 {
		return nil, nil
	}
	b := ix.entries(q)
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
// For tau > Eps() only the entries with π̂_i(q) > 0 are classified;
// tau ≤ Eps() makes every π̂ = 0 Possible, so the indices between the
// entries are walked too.
func (ix *Index) Threshold(q Point, tau float64) (ThresholdResult, error) {
	if ix.positive == nil {
		return ThresholdResult{}, fmt.Errorf("pnn: no quantifier for %T: %w", ix.set, ErrUnsupported)
	}
	if math.IsNaN(tau) || math.IsInf(tau, 0) {
		return ThresholdResult{}, fmt.Errorf("pnn: tau must be finite, got %g: %w", tau, ErrInvalidParam)
	}
	lo := tau // π̂ threshold certifying π ≥ tau
	if ix.twoSided {
		lo = tau + ix.eps
	}
	zeroPossible := ix.eps > 0 && tau <= ix.eps
	var res ThresholdResult
	b := ix.entries(q)
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
	if zeroPossible {
		np += ix.n - len(b.entries)
	}
	if nc > 0 {
		res.Certain = make([]int, 0, nc)
	}
	if np > 0 {
		res.Possible = make([]int, 0, np)
	}
	next := 0 // the first index not yet classified
	for _, e := range b.entries {
		for ; zeroPossible && next < e.I; next++ {
			res.Possible = append(res.Possible, next)
		}
		next = e.I + 1
		switch {
		case e.P >= lo:
			res.Certain = append(res.Certain, e.I)
		case ix.eps > 0 && e.P+ix.eps >= tau:
			res.Possible = append(res.Possible, e.I)
		}
	}
	for ; zeroPossible && next < ix.n; next++ {
		res.Possible = append(res.Possible, next)
	}
	ix.putIP(b)
	return res, nil
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
