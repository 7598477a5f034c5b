// Package pnn implements probabilistic nearest-neighbor search over
// uncertain points in the plane, reproducing "Nearest-Neighbor Searching
// Under Uncertainty II" (Agarwal, Aronov, Har-Peled, Phillips, Yi, Zhang;
// PODS 2013).
//
// # Quickstart
//
// Build an uncertain-point set, wrap it in the Index facade, and query:
//
//	set, err := pnn.NewDiscreteSet(points) // or NewContinuousSet, NewSquareSet
//	idx, err := pnn.New(set)
//	candidates, err := idx.Nonzero(q)       // NN≠0(q): who can be nearest?
//	pi, err := idx.Probabilities(q)         // π_i(q): how likely is each?
//	top, err := idx.TopK(q, 3)              // most probable nearest neighbors
//	results, err := idx.QueryBatchOps(ctx, reqs, workers) // concurrent batches
//
// An uncertain point is either continuous — a probability density with a
// disk support (uniform or truncated Gaussian) — or discrete: k candidate
// locations with probabilities. Square regions under the L∞ metric
// (§3, Remark (ii)) support the NN≠0 family.
//
// # Option matrix
//
// New accepts functional options; every combination not listed as an
// error below is supported.
//
//	WithMetric          L2 (disks, discrete) | Linf (squares); inferred
//	                    from the data when omitted.
//	WithNonzeroBackend  BackendIndex   near-linear index, Thms 3.1/3.2 (default)
//	                    BackendDirect  O(n) evaluation of Lemma 2.1
//	                    BackendDiagram V≠0 point location, Thm 2.11
//	                                   (L2 only)
//	WithQuantifier      Exact()                 Eq. (2) sweep / Eq. (1)
//	                                            integration (default)
//	                    MonteCarlo(eps, delta)  Thms 4.3/4.5
//	                    MonteCarloBudget(s)     explicit round budget
//	                    SpiralSearch(eps)       Thm 4.7, one-sided ε
//	                    VPrDiagram(box)         Thm 4.2 (discrete only)
//	                    (any quantifier over a SquareSet is an error:
//	                    L∞ supports the NN≠0 family only)
//	WithSeed            seeds all randomized preprocessing (default 1)
//	WithRandSource      custom rand.Source, overrides WithSeed
//	WithIntegrationPanels / WithSpiralSamples   accuracy knobs for
//	                    continuous inputs
//
// # One probability path
//
// Every quantifier answers a query with the entries π_i(q) > 0 in
// increasing index order, the form the paper's regimes produce: a Monte
// Carlo estimator reports at most s positive estimates (Theorem 4.3),
// spiral search inspects only the m(ρ,ε) nearest locations (Theorem
// 4.7), and the exact discrete engine sweeps only the locations within
// Δ(q) = min_j Δ_j(q) of q, the window outside which Lemma 2.1 rules out
// any positive probability. Exact continuous integration and V_Pr
// compute the dense vector and keep its positive entries. TopK,
// Threshold, and PositiveProbabilities rank or filter those entries in
// output-sized allocations — typically one per call, for the
// caller-owned result. Probabilities scatters them into a zeroed
// N-length vector, and Threshold with tau ≤ Eps() on an approximate
// engine walks every index, since a zero estimate is then Possible.
//
// # Ownership and the caller-buffer variant
//
// Every query result is caller-owned: mutating a returned slice never
// affects later queries. For allocation-flat loops NonzeroInto reuses a
// caller buffer instead: the buffer is consumed from its start (not
// appended after existing elements), grown only when too small, and the
// returned slice aliases it, so it is valid only until the next
// NonzeroInto call with that buffer. Passing nil is allowed and behaves
// like Nonzero.
//
// # Query-parameter domains
//
// New and NewDynamic reject a quantifier outside its domain with
// ErrInvalidParam before building anything: MonteCarlo and SpiralSearch
// need eps (and delta) in (0, 1), MonteCarloBudget at least one round,
// and WithIntegrationPanels and WithSpiralSamples a count of at least 1.
// TopK(q, k) defines its edges identically through the facade,
// QueryBatchOps, and the HTTP serving surface: k < 0 fails with
// ErrInvalidParam, k == 0 answers an empty ranking, k > Len() clamps.
// Threshold rejects NaN and ±Inf taus with ErrInvalidParam, and never
// certifies a zero-probability point — Threshold(q, 0) reports exactly
// the positive-probability points as Certain under an exact engine.
// PositiveProbabilities rejects a NaN eps with ErrInvalidParam.
//
// # Determinism
//
// All randomness is drawn during New (Monte Carlo instantiations,
// continuous-point discretization), so a built Index is read-only:
// every query method is safe for concurrent use, and QueryBatchOps
// returns identical results for every worker count. Two Indexes built from the
// same data, options, and seed answer identically.
//
// # Dynamic indexes
//
// DynamicIndex carries the same query surface over a mutable point
// set: NewDynamic, then InsertDisk/InsertDiscrete/InsertSquare and
// Delete by the stable PointID each insert returns. The static
// structures are dynamized with the Bentley–Saxe logarithmic method
// (points live in O(log n) static buckets that merge on overflow;
// deletes are tombstones with compaction once they reach the live
// count), and every query — Nonzero through the merged per-bucket
// structures, quantification through a lazily rebuilt live view — is
// bitwise identical to a fresh static Index built from the surviving
// points with the same options. Under the exact discrete engine the
// view rebuild a write forces shares the survivors' already validated
// distributions instead of re-validating them, and the query after it
// sweeps only the Lemma 2.1 window. Result indices refer to the
// survivors in insertion order; IDs maps them back to PointIDs.
//
// The quickstart in examples/quickstart shows both query families end to
// end. ARCHITECTURE.md maps every package to the theorem of the paper
// it implements, and `go run ./cmd/pnnbench -experiment list` lists the
// reproduced experiments.
package pnn
