package pnn

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"pnn/internal/quantify"
)

// engineConfigs enumerates the quantifier configurations the sparse path
// must agree with the dense path on, per set kind. V_Pr is exercised
// separately over a small set — its diagram is Θ(N⁴) (Lemma 4.1), so the
// property-test sets here would blow construction up.
func discreteEngines() map[string][]Option {
	return map[string][]Option{
		"exact":    nil,
		"spiral":   {WithQuantifier(SpiralSearch(0.05))},
		"mc":       {WithQuantifier(MonteCarlo(0.15, 0.1)), WithSeed(3)},
		"mcbudget": {WithQuantifier(MonteCarloBudget(200)), WithSeed(5)},
	}
}

func continuousEngines() map[string][]Option {
	return map[string][]Option{
		"integrate": {WithIntegrationPanels(64)},
		"spiral":    {WithQuantifier(SpiralSearch(0.1)), WithSpiralSamples(40), WithSeed(2)},
		"mcbudget":  {WithQuantifier(MonteCarloBudget(150)), WithSeed(7)},
	}
}

func toIndexProbs(in []quantify.IndexProb) []IndexProb {
	out := make([]IndexProb, len(in))
	for i, ip := range in {
		out[i] = IndexProb{Index: ip.I, Prob: ip.P}
	}
	return out
}

// denseTopK is the pre-sparse-path reference: rank the full vector.
func denseTopK(ix *Index, q Point, k int) []IndexProb {
	pi, _ := ix.Probabilities(q)
	return toIndexProbs(quantify.TopK(pi, k))
}

// densePositive is the pre-sparse-path reference for PositiveProbabilities.
func densePositive(ix *Index, q Point, eps float64) []IndexProb {
	pi, _ := ix.Probabilities(q)
	return toIndexProbs(quantify.PositiveInto(pi, eps, nil))
}

// denseThreshold is the reference classification over the full vector,
// with the zero-probability fix applied (π̂ = 0 is never Certain).
func denseThreshold(ix *Index, q Point, tau float64) ThresholdResult {
	pi, _ := ix.Probabilities(q)
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
	return res
}

func sameIP(a, b []IndexProb) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] { // bitwise float equality on purpose
			return false
		}
	}
	return true
}

// TestSparseMatchesDenseProperty is the equivalence property of the one
// probability path: TopK, Threshold, and PositiveProbabilities answered
// from the engines' positive entries must be identical — same indices,
// same probabilities (bitwise), same order — to ranking, filtering and
// classifying the Probabilities vector, across seeds, engines, and set
// kinds.
func TestSparseMatchesDenseProperty(t *testing.T) {
	type setCase struct {
		name    string
		set     UncertainSet
		engines map[string][]Option
	}
	var cases []setCase
	for seed := int64(1); seed <= 3; seed++ {
		r := rand.New(rand.NewSource(seed))
		dset, err := NewDiscreteSet(randomDiscretePoints(r, 25, 3))
		if err != nil {
			t.Fatal(err)
		}
		cset, err := NewContinuousSet(randomDiskPoints(r, 12))
		if err != nil {
			t.Fatal(err)
		}
		vset, err := NewDiscreteSet(randomDiscretePoints(r, 6, 2))
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases,
			setCase{"discrete", dset, discreteEngines()},
			setCase{"continuous", cset, continuousEngines()},
			setCase{"discrete-vpr", vset, map[string][]Option{
				"vpr": {WithQuantifier(VPrDiagram(-10, -10, 110, 110))},
			}})
	}
	taus := []float64{-0.5, 0, 0.02, 0.08, 0.2, 0.5, 1.5}
	for ci, c := range cases {
		r := rand.New(rand.NewSource(int64(100 + ci)))
		for name, opts := range c.engines {
			idx, err := New(c.set, opts...)
			if err != nil {
				t.Fatalf("%s/%s: %v", c.name, name, err)
			}
			for trial := 0; trial < 15; trial++ {
				q := Pt(r.Float64()*120-10, r.Float64()*120-10)
				for _, k := range []int{0, 1, 3, idx.Len(), idx.Len() + 7} {
					got, err := idx.TopK(q, k)
					if err != nil {
						t.Fatalf("%s/%s TopK: %v", c.name, name, err)
					}
					if want := denseTopK(idx, q, k); !sameIP(got, want) {
						t.Fatalf("%s/%s TopK(%v, %d) = %v, dense %v", c.name, name, q, k, got, want)
					}
				}
				for _, eps := range []float64{0, 0.01, 0.3} {
					got, err := idx.PositiveProbabilities(q, eps)
					if err != nil {
						t.Fatal(err)
					}
					if want := densePositive(idx, q, eps); !sameIP(got, want) {
						t.Fatalf("%s/%s Positive(%v, %g) = %v, dense %v", c.name, name, q, eps, got, want)
					}
				}
				for _, tau := range taus {
					got, err := idx.Threshold(q, tau)
					if err != nil {
						t.Fatal(err)
					}
					want := denseThreshold(idx, q, tau)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s/%s Threshold(%v, %g) = %+v, dense %+v (eps=%g twoSided=%v)",
							c.name, name, q, tau, got, want, idx.eps, idx.twoSided)
					}
				}
			}
		}
	}
}

// TestThresholdZeroTau is the regression for the tau = 0 bug: Threshold
// must never certify zero-probability points, for any engine. With an
// exact engine the Certain set at tau ≤ 0 is exactly NN≠0-with-positive-π;
// approximate engines may leave the rest Possible, never Certain.
func TestThresholdZeroTau(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	set, err := NewDiscreteSet(randomDiscretePoints(r, 20, 3))
	if err != nil {
		t.Fatal(err)
	}
	for name, opts := range discreteEngines() {
		idx, err := New(set, opts...)
		if err != nil {
			t.Fatal(err)
		}
		for _, tau := range []float64{0, -1} {
			for trial := 0; trial < 10; trial++ {
				q := Pt(r.Float64()*100, r.Float64()*100)
				res, err := idx.Threshold(q, tau)
				if err != nil {
					t.Fatal(err)
				}
				pi, _ := idx.Probabilities(q)
				for _, i := range res.Certain {
					if pi[i] <= 0 {
						t.Fatalf("%s: Threshold(%v, %g) certified zero-probability point %d", name, q, tau, i)
					}
				}
				reported := map[int]bool{}
				for _, i := range res.Certain {
					reported[i] = true
				}
				if idx.eps == 0 {
					// Exact-comparison engines: Certain is exactly the
					// positive-probability set and nothing is undecidable.
					if len(res.Possible) != 0 {
						t.Fatalf("%s: Possible = %v at tau=%g", name, res.Possible, tau)
					}
					for i, p := range pi {
						if (p > 0) != reported[i] {
							t.Fatalf("%s: point %d (π̂=%g) certification mismatch at tau=%g", name, i, p, tau)
						}
					}
					continue
				}
				// Approximate engines: every positive-estimate point must at
				// least be Possible (a zero estimate cannot be Certain but
				// may be Possible — its true π may reach ε).
				for _, i := range res.Possible {
					reported[i] = true
				}
				for i, p := range pi {
					if p > 0 && !reported[i] {
						t.Fatalf("%s: point %d has π̂=%g but was not reported at tau=%g", name, i, p, tau)
					}
				}
			}
		}
	}
}

// TestExactPositiveWithinNonzero is the regression for phantom
// probabilities. Weights need only sum to 1 ± 1e-6; an owner whose
// weights sum to 1 − 5e-7 used to keep a residual factor once all its
// locations were inside the sweep radius, so every farther point got a
// tiny positive π (≈ 1e-111) although Lemma 2.1 puts it outside
// NN≠0(q). Every exact answer must stay inside Nonzero(q).
func TestExactPositiveWithinNonzero(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	pts := randomDiscretePoints(r, 200, 4)
	for i := range pts {
		pts[i].Weights = []float64{0.25, 0.25, 0.25, 0.25 - 5e-7}
	}
	set, err := NewDiscreteSet(pts)
	if err != nil {
		t.Fatal(err)
	}
	type exactEngine interface {
		Nonzero(Point) ([]int, error)
		PositiveProbabilities(Point, float64) ([]IndexProb, error)
		TopK(Point, int) ([]IndexProb, error)
		Threshold(Point, float64) (ThresholdResult, error)
	}
	engines := map[string]exactEngine{}
	for name, b := range map[string]NonzeroBackend{"index": BackendIndex, "direct": BackendDirect} {
		idx, err := New(set, WithNonzeroBackend(b))
		if err != nil {
			t.Fatal(err)
		}
		engines[name] = idx
	}
	dyn, err := NewDynamic()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if _, err := dyn.InsertDiscrete(p); err != nil {
			t.Fatal(err)
		}
	}
	engines["dynamic"] = dyn
	qs := make([]Point, 100)
	for i := range qs {
		qs[i] = Pt(r.Float64()*100, r.Float64()*100)
	}
	for name, e := range engines {
		for _, q := range qs {
			nz, err := e.Nonzero(q)
			if err != nil {
				t.Fatal(err)
			}
			inNZ := map[int]bool{}
			for _, i := range nz {
				inNZ[i] = true
			}
			pos, err := e.PositiveProbabilities(q, 0)
			if err != nil {
				t.Fatal(err)
			}
			top, err := e.TopK(q, len(pts))
			if err != nil {
				t.Fatal(err)
			}
			th, err := e.Threshold(q, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, ip := range append(pos, top...) {
				if !inNZ[ip.Index] {
					t.Fatalf("%s: q=%v reports π_%d = %g outside NN≠0 %v", name, q, ip.Index, ip.Prob, nz)
				}
			}
			for _, i := range th.Certain {
				if !inNZ[i] {
					t.Fatalf("%s: q=%v Threshold(0) certifies %d outside NN≠0 %v", name, q, i, nz)
				}
			}
		}
	}
}

// TestThresholdInvalidTau: NaN and ±Inf taus must fail with
// ErrInvalidParam instead of silently classifying nothing.
func TestThresholdInvalidTau(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	set, err := NewDiscreteSet(randomDiscretePoints(r, 6, 2))
	if err != nil {
		t.Fatal(err)
	}
	idx, err := New(set)
	if err != nil {
		t.Fatal(err)
	}
	for _, tau := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := idx.Threshold(Pt(1, 1), tau); !errors.Is(err, ErrInvalidParam) {
			t.Fatalf("Threshold(tau=%v) err = %v, want ErrInvalidParam", tau, err)
		}
	}
}

// TestTopKEdgeSemantics pins the defined edges — k < 0 errors, k == 0 is
// empty, k > N clamps — identically through the facade and QueryBatchOps.
func TestTopKEdgeSemantics(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	set, err := NewDiscreteSet(randomDiscretePoints(r, 8, 2))
	if err != nil {
		t.Fatal(err)
	}
	idx, err := New(set)
	if err != nil {
		t.Fatal(err)
	}
	q := Pt(40, 40)

	if _, err := idx.TopK(q, -1); !errors.Is(err, ErrInvalidParam) {
		t.Fatalf("TopK(-1) err = %v, want ErrInvalidParam", err)
	}
	if got, err := idx.TopK(q, 0); err != nil || len(got) != 0 {
		t.Fatalf("TopK(0) = %v, %v; want empty, nil", got, err)
	}
	big, err := idx.TopK(q, idx.Len()+100)
	if err != nil {
		t.Fatal(err)
	}
	if len(big) > idx.Len() {
		t.Fatalf("TopK clamped to %d entries, want ≤ %d", len(big), idx.Len())
	}
	pos, _ := idx.PositiveProbabilities(q, 0)
	if len(big) != len(pos) {
		t.Fatalf("TopK(N+100) has %d entries, want all %d positive ones", len(big), len(pos))
	}

	// The same three edges through the heterogeneous batch surface.
	res, err := idx.QueryBatchOps(context.Background(), []Request{
		{Q: q, Op: OpTopK, K: -1},
		{Q: q, Op: OpTopK, K: 0},
		{Q: q, Op: OpTopK, K: idx.Len() + 100},
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(res[0].Err, ErrInvalidParam) {
		t.Fatalf("batch TopK(-1) err = %v, want ErrInvalidParam", res[0].Err)
	}
	if res[1].Err != nil || len(res[1].Ranked) != 0 {
		t.Fatalf("batch TopK(0) = %v, %v", res[1].Ranked, res[1].Err)
	}
	if res[2].Err != nil || !sameIP(res[2].Ranked, big) {
		t.Fatalf("batch TopK(N+100) = %v, facade %v", res[2].Ranked, big)
	}
}

// TestResultsAreCallerOwned is the slice-aliasing audit: every query
// result of every backend and every set kind must be safe to mutate —
// re-querying afterwards returns the original answer.
func TestResultsAreCallerOwned(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	// Small discrete set: the V_Pr engine below is Θ(N⁴) in locations.
	dset, err := NewDiscreteSet(randomDiscretePoints(r, 8, 2))
	if err != nil {
		t.Fatal(err)
	}
	cset, err := NewContinuousSet(randomDiskPoints(r, 8))
	if err != nil {
		t.Fatal(err)
	}
	sqs := make([]SquarePoint, 8)
	for i := range sqs {
		sqs[i] = SquarePoint{Center: Pt(r.Float64()*100, r.Float64()*100), R: 0.5 + r.Float64()*3}
	}
	sset, err := NewSquareSet(sqs)
	if err != nil {
		t.Fatal(err)
	}

	backends := map[string]NonzeroBackend{
		"index":   BackendIndex,
		"direct":  BackendDirect,
		"diagram": BackendDiagram,
	}
	sets := map[string]UncertainSet{"discrete": dset, "continuous": cset, "square": sset}

	for sname, set := range sets {
		for bname, backend := range backends {
			if sname == "square" && backend == BackendDiagram {
				continue // no diagram backend under L∞
			}
			opts := []Option{WithNonzeroBackend(backend)}
			if sname == "discrete" {
				// The V_Pr engine caches one vector per face — the aliasing
				// hazard the audit exists for. Exercise it along with exact.
				opts = append(opts, WithQuantifier(VPrDiagram(-10, -10, 110, 110)))
			}
			if sname == "continuous" {
				opts = append(opts, WithIntegrationPanels(32))
			}
			idx, err := New(set, opts...)
			if err != nil {
				t.Fatalf("%s/%s: %v", sname, bname, err)
			}
			for trial := 0; trial < 5; trial++ {
				q := Pt(r.Float64()*100, r.Float64()*100)

				nz, err := idx.Nonzero(q)
				if err != nil {
					t.Fatal(err)
				}
				orig := append([]int(nil), nz...)
				for i := range nz {
					nz[i] = -7
				}
				again, _ := idx.Nonzero(q)
				if !reflect.DeepEqual(again, orig) {
					t.Fatalf("%s/%s: Nonzero result aliases internal state: %v vs %v", sname, bname, again, orig)
				}

				if sname == "square" {
					continue // no quantifier surface
				}
				pi, err := idx.Probabilities(q)
				if err != nil {
					t.Fatal(err)
				}
				origPi := append([]float64(nil), pi...)
				for i := range pi {
					pi[i] = -1
				}
				againPi, _ := idx.Probabilities(q)
				if !reflect.DeepEqual(againPi, origPi) {
					t.Fatalf("%s/%s: Probabilities result aliases internal state", sname, bname)
				}

				top, err := idx.TopK(q, 3)
				if err != nil {
					t.Fatal(err)
				}
				origTop := append([]IndexProb(nil), top...)
				for i := range top {
					top[i] = IndexProb{Index: -1, Prob: -1}
				}
				againTop, _ := idx.TopK(q, 3)
				if !sameIP(againTop, origTop) {
					t.Fatalf("%s/%s: TopK result aliases internal state", sname, bname)
				}

				pos, err := idx.PositiveProbabilities(q, 0)
				if err != nil {
					t.Fatal(err)
				}
				origPos := append([]IndexProb(nil), pos...)
				for i := range pos {
					pos[i] = IndexProb{Index: -1, Prob: -1}
				}
				againPos, _ := idx.PositiveProbabilities(q, 0)
				if !sameIP(againPos, origPos) {
					t.Fatalf("%s/%s: PositiveProbabilities result aliases internal state", sname, bname)
				}

				th, err := idx.Threshold(q, 0.1)
				if err != nil {
					t.Fatal(err)
				}
				origTh := ThresholdResult{
					Certain:  append([]int(nil), th.Certain...),
					Possible: append([]int(nil), th.Possible...),
				}
				for i := range th.Certain {
					th.Certain[i] = -1
				}
				for i := range th.Possible {
					th.Possible[i] = -1
				}
				againTh, _ := idx.Threshold(q, 0.1)
				if !reflect.DeepEqual(againTh, origTh) {
					t.Fatalf("%s/%s: Threshold result aliases internal state", sname, bname)
				}
			}
		}
	}
}

// TestIntoVariants: the caller-buffer query form must reuse the buffer
// when it is large enough and agree exactly with the allocating form.
func TestIntoVariants(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	set, err := NewDiscreteSet(randomDiscretePoints(r, 15, 3))
	if err != nil {
		t.Fatal(err)
	}
	for name, opts := range discreteEngines() {
		idx, err := New(set, opts...)
		if err != nil {
			t.Fatal(err)
		}
		nzBuf := make([]int, 0, idx.Len())
		for trial := 0; trial < 10; trial++ {
			q := Pt(r.Float64()*100, r.Float64()*100)
			wantNZ, _ := idx.Nonzero(q)
			gotNZ, err := idx.NonzeroInto(q, nzBuf)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(append([]int{}, gotNZ...), wantNZ) {
				t.Fatalf("%s: NonzeroInto %v, Nonzero %v", name, gotNZ, wantNZ)
			}
			if len(gotNZ) > 0 && len(gotNZ) <= cap(nzBuf) && &gotNZ[0] != &nzBuf[:1][0] {
				t.Fatalf("%s: NonzeroInto did not reuse the buffer", name)
			}
		}
	}
}

// TestQueryBatchOpsSparseConsistency: the batch surface dispatches to the
// same sparse implementations, so a mixed batch must be byte-identical
// to sequential facade calls (the server's coalescing relies on this).
func TestQueryBatchOpsSparseConsistency(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	set, err := NewDiscreteSet(randomDiscretePoints(r, 20, 3))
	if err != nil {
		t.Fatal(err)
	}
	idx, err := New(set, WithQuantifier(SpiralSearch(0.05)))
	if err != nil {
		t.Fatal(err)
	}
	var reqs []Request
	for i := 0; i < 40; i++ {
		q := Pt(r.Float64()*100, r.Float64()*100)
		reqs = append(reqs,
			Request{Q: q, Op: OpTopK, K: 1 + i%5},
			Request{Q: q, Op: OpThreshold, Tau: 0.1 + float64(i%4)*0.1},
			Request{Q: q, Op: OpProbabilities})
	}
	res, err := idx.QueryBatchOps(context.Background(), reqs, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, req := range reqs {
		switch req.Op {
		case OpTopK:
			want, _ := idx.TopK(req.Q, req.K)
			if !sameIP(res[i].Ranked, want) {
				t.Fatalf("req %d: batch TopK %v, sequential %v", i, res[i].Ranked, want)
			}
		case OpThreshold:
			want, _ := idx.Threshold(req.Q, req.Tau)
			if !reflect.DeepEqual(res[i].Threshold, want) {
				t.Fatalf("req %d: batch Threshold %+v, sequential %+v", i, res[i].Threshold, want)
			}
		case OpProbabilities:
			want, _ := idx.Probabilities(req.Q)
			if !reflect.DeepEqual(res[i].Probabilities, want) {
				t.Fatalf("req %d: batch Probabilities disagree", i)
			}
		}
	}
}
