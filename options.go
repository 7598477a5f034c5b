package pnn

import (
	"fmt"
	"math/rand"
)

// Metric selects the distance function of the query engine.
type Metric int

// Supported metrics.
const (
	// L2 is the Euclidean metric used by disk-supported and discrete
	// uncertain points.
	L2 Metric = iota
	// Linf is the Chebyshev metric used by square uncertainty regions
	// (§3, Remark (ii)).
	Linf
)

func (m Metric) String() string {
	if m == Linf {
		return "Linf"
	}
	return "L2"
}

// NonzeroBackend selects the structure answering NN≠0 queries.
type NonzeroBackend int

// Supported backends, trading preprocessing for query time.
const (
	// BackendIndex is the near-linear two-stage index of Theorems 3.1/3.2
	// (logarithmic queries, O(n log n) preprocessing). The default.
	BackendIndex NonzeroBackend = iota
	// BackendDirect evaluates Lemma 2.1 directly: no preprocessing, O(n)
	// per query.
	BackendDirect
	// BackendDiagram point-locates in the nonzero Voronoi diagram V≠0
	// (Theorem 2.11): worst-case Θ(n³) space, O(log μ + t) queries.
	BackendDiagram
)

func (b NonzeroBackend) String() string {
	switch b {
	case BackendDirect:
		return "direct"
	case BackendDiagram:
		return "diagram"
	default:
		return "index"
	}
}

type quantKind int

const (
	quantExact quantKind = iota
	quantMonteCarlo
	quantMonteCarloBudget
	quantSpiral
	quantVPr
)

// Quantifier selects the engine computing quantification probabilities
// π_i(q). Construct one with Exact, MonteCarlo, MonteCarloBudget,
// SpiralSearch, or VPrDiagram.
type Quantifier struct {
	kind                   quantKind
	eps, delta             float64
	rounds                 int
	minX, minY, maxX, maxY float64
}

// Exact computes π_i(q) exactly: for discrete points the Eq. (2) sweep
// over the locations within Δ(q) = min_j Δ_j(q) of q (Lemma 2.1; O(N)
// to find them, and TopK, Threshold and PositiveProbabilities never
// build the N-length vector), numerical integration of Eq. (1) for
// continuous ones (see WithIntegrationPanels). The default quantifier.
func Exact() Quantifier { return Quantifier{kind: quantExact} }

// MonteCarlo estimates π_i(q) from preprocessed random instantiations
// with additive error at most eps for every query, with probability at
// least 1−delta (Theorems 4.3 and 4.5). The round count follows the
// theorems; use MonteCarloBudget for an explicit budget. eps and delta
// must lie in (0, 1).
func MonteCarlo(eps, delta float64) Quantifier {
	return Quantifier{kind: quantMonteCarlo, eps: eps, delta: delta}
}

// MonteCarloBudget estimates π_i(q) from an explicit number of
// preprocessed rounds (at least 1); the error scales as
// sqrt(log/rounds).
func MonteCarloBudget(rounds int) Quantifier {
	return Quantifier{kind: quantMonteCarloBudget, rounds: rounds}
}

// SpiralSearch approximates π_i(q) deterministically with one-sided
// additive error: π̂_i ≤ π_i ≤ π̂_i + eps (Theorem 4.7), for eps in
// (0, 1). Continuous points are first discretized (Lemma 4.4; see
// WithSpiralSamples).
func SpiralSearch(eps float64) Quantifier {
	return Quantifier{kind: quantSpiral, eps: eps}
}

// VPrDiagram answers exact π vectors by point location in the
// probabilistic Voronoi diagram covering the given box (Theorem 4.2,
// Θ(N⁴) worst-case space — small inputs only). Discrete points only;
// queries outside the box fall back to the exact sweep.
func VPrDiagram(minX, minY, maxX, maxY float64) Quantifier {
	return Quantifier{kind: quantVPr, minX: minX, minY: minY, maxX: maxX, maxY: maxY}
}

// validate rejects parameters outside the quantifier's domain, before
// anything is built: eps and delta must lie in (0, 1), and an explicit
// round budget must be at least 1.
func (q Quantifier) validate() error {
	inUnit := func(v float64) bool { return v > 0 && v < 1 }
	switch q.kind {
	case quantMonteCarlo:
		if !inUnit(q.eps) || !inUnit(q.delta) {
			return fmt.Errorf("pnn: MonteCarlo(%g, %g) needs eps and delta in (0, 1): %w", q.eps, q.delta, ErrInvalidParam)
		}
	case quantMonteCarloBudget:
		if q.rounds < 1 {
			return fmt.Errorf("pnn: MonteCarloBudget(%d) needs at least 1 round: %w", q.rounds, ErrInvalidParam)
		}
	case quantSpiral:
		if !inUnit(q.eps) {
			return fmt.Errorf("pnn: SpiralSearch(%g) needs eps in (0, 1): %w", q.eps, ErrInvalidParam)
		}
	}
	return nil
}

// Option configures an Index under construction. All options have
// sensible defaults; zero options give an exact engine over the
// near-linear NN≠0 index.
type Option func(*config)

type config struct {
	metric        Metric
	metricSet     bool
	backend       NonzeroBackend
	quant         Quantifier
	quantSet      bool
	seed          int64
	src           rand.Source
	panels        int
	spiralSamples int
}

// validate rejects a configuration with a parameter outside its
// domain, before anything is built: the quantifier's own parameters and
// non-positive panel or sample counts.
func (c config) validate() error {
	if c.panels < 1 {
		return fmt.Errorf("pnn: WithIntegrationPanels(%d) needs at least 1 panel: %w", c.panels, ErrInvalidParam)
	}
	if c.spiralSamples < 1 {
		return fmt.Errorf("pnn: WithSpiralSamples(%d) needs at least 1 sample: %w", c.spiralSamples, ErrInvalidParam)
	}
	return c.quant.validate()
}

func defaultConfig() config {
	return config{
		backend:       BackendIndex,
		quant:         Exact(),
		seed:          1,
		panels:        512,
		spiralSamples: 500,
	}
}

// WithMetric fixes the metric. It must match the data kind: L2 for disk
// and discrete uncertain points, Linf for square regions. Without this
// option the metric is inferred from the data.
func WithMetric(m Metric) Option {
	return func(c *config) { c.metric = m; c.metricSet = true }
}

// WithNonzeroBackend selects the NN≠0 structure.
func WithNonzeroBackend(b NonzeroBackend) Option {
	return func(c *config) { c.backend = b }
}

// WithQuantifier selects the probability engine. Square (L∞) sets have
// no quantifier; passing this option for one is rejected by New.
func WithQuantifier(q Quantifier) Option {
	return func(c *config) { c.quant = q; c.quantSet = true }
}

// WithSeed seeds every randomized component (Monte Carlo instantiation,
// continuous-point discretization). Indexes built with the same data,
// options, and seed answer every query identically — including
// QueryBatchOps at any worker count. The default seed is 1, so omitting
// the option is also deterministic.
func WithSeed(seed int64) Option {
	return func(c *config) { c.seed = seed }
}

// WithRandSource supplies a rand.Source for randomized components,
// overriding WithSeed. Determinism is then up to the caller's source.
func WithRandSource(src rand.Source) Option {
	return func(c *config) { c.src = src }
}

// WithIntegrationPanels sets the Simpson panel count used when
// probabilities of continuous points are computed by numerical
// integration of Eq. (1). Accuracy grows with panels; the default 512
// gives ~1e-4 on well-conditioned inputs. n must be at least 1 (New and
// NewDynamic fail with ErrInvalidParam otherwise); the integrator
// raises counts below 8 to 8 and rounds an odd count up to the next
// even one.
func WithIntegrationPanels(n int) Option {
	return func(c *config) { c.panels = n }
}

// WithSpiralSamples sets the per-point sample count used to discretize
// continuous distributions for spiral search (Lemma 4.4). The sampling
// error adds n·α(samples) to the spiral ε. n must be at least 1 (New
// and NewDynamic fail with ErrInvalidParam otherwise).
func WithSpiralSamples(n int) Option {
	return func(c *config) { c.spiralSamples = n }
}
