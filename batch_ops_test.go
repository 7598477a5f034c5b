package pnn

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// TestQueryBatchOpsMatchesSequential checks that a heterogeneous batch
// returns exactly what the corresponding sequential method calls
// return, for every op.
func TestQueryBatchOpsMatchesSequential(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	set, err := NewDiscreteSet(randomDiscretePoints(r, 12, 3))
	if err != nil {
		t.Fatal(err)
	}
	ix, err := New(set)
	if err != nil {
		t.Fatal(err)
	}
	var reqs []Request
	for i := 0; i < 8; i++ {
		q := Pt(r.Float64()*40, r.Float64()*40)
		reqs = append(reqs,
			Request{Q: q, Op: OpNonzero},
			Request{Q: q, Op: OpProbabilities},
			Request{Q: q, Op: OpTopK, K: 3},
			Request{Q: q, Op: OpThreshold, Tau: 0.2},
			Request{Q: q, Op: OpExpectedNN},
		)
	}
	res, err := ix.QueryBatchOps(context.Background(), reqs, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, req := range reqs {
		got := res[i]
		if got.Err != nil {
			t.Fatalf("req %d (%v): unexpected error %v", i, req.Op, got.Err)
		}
		switch req.Op {
		case OpNonzero:
			want, _ := ix.Nonzero(req.Q)
			if !reflect.DeepEqual(got.Nonzero, want) {
				t.Errorf("req %d: nonzero mismatch", i)
			}
		case OpProbabilities:
			want, _ := ix.Probabilities(req.Q)
			if !reflect.DeepEqual(got.Probabilities, want) {
				t.Errorf("req %d: probabilities mismatch", i)
			}
		case OpTopK:
			want, _ := ix.TopK(req.Q, req.K)
			if !reflect.DeepEqual(got.Ranked, want) {
				t.Errorf("req %d: topk mismatch", i)
			}
		case OpThreshold:
			want, _ := ix.Threshold(req.Q, req.Tau)
			if !reflect.DeepEqual(got.Threshold, want) {
				t.Errorf("req %d: threshold mismatch", i)
			}
		case OpExpectedNN:
			wi, wd, _ := ix.ExpectedNN(req.Q)
			if got.ExpectedIndex != wi || math.Abs(got.ExpectedDist-wd) != 0 {
				t.Errorf("req %d: expectednn mismatch", i)
			}
		}
	}
}

// TestQueryBatchOpsDeterministicAcrossWorkers runs the same mixed batch
// at several worker counts (0 = GOMAXPROCS) and demands identical
// output, for a deterministic and a randomized quantifier.
func TestQueryBatchOpsDeterministicAcrossWorkers(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	set, err := NewDiscreteSet(randomDiscretePoints(r, 10, 3))
	if err != nil {
		t.Fatal(err)
	}
	ops := []Op{OpNonzero, OpProbabilities, OpTopK, OpThreshold, OpExpectedNN}
	var reqs []Request
	for i := 0; i < 40; i++ {
		reqs = append(reqs, Request{
			Q: Pt(r.Float64()*40, r.Float64()*40), Op: ops[i%len(ops)], K: 2, Tau: 0.1,
		})
	}
	for name, q := range map[string]Quantifier{"spiral": SpiralSearch(0.05), "mcbudget": MonteCarloBudget(500)} {
		ix, err := New(set, WithQuantifier(q), WithSeed(3))
		if err != nil {
			t.Fatal(err)
		}
		ref, err := ix.QueryBatchOps(context.Background(), reqs, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 4, 17, 0} {
			got, err := ix.QueryBatchOps(context.Background(), reqs, workers)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, ref) {
				t.Errorf("%s workers=%d: results differ from serial", name, workers)
			}
		}
	}
}

// TestQueryBatchOpsPerRequestErrors checks that an unsupported request
// fails alone, without failing its batchmates: L∞ squares answer
// OpNonzero but have no quantifier and no expected distance.
func TestQueryBatchOpsPerRequestErrors(t *testing.T) {
	set, err := NewSquareSet([]SquarePoint{
		{Center: Pt(0, 0), R: 1}, {Center: Pt(5, 5), R: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := New(set)
	if err != nil {
		t.Fatal(err)
	}
	reqs := []Request{
		{Q: Pt(1, 1), Op: OpNonzero},
		{Q: Pt(1, 1), Op: OpProbabilities},
		{Q: Pt(1, 1), Op: OpExpectedNN},
		{Q: Pt(4, 4), Op: OpNonzero},
		{Q: Pt(1, 1), Op: Op(99)},
	}
	res, err := ix.QueryBatchOps(context.Background(), reqs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Err != nil || res[3].Err != nil {
		t.Fatalf("nonzero requests failed: %v, %v", res[0].Err, res[3].Err)
	}
	if len(res[0].Nonzero) == 0 {
		t.Error("nonzero request returned empty set at a covered point")
	}
	for _, i := range []int{1, 2, 4} {
		if !errors.Is(res[i].Err, ErrUnsupported) {
			t.Errorf("req %d: want ErrUnsupported, got %v", i, res[i].Err)
		}
	}
}

// TestQueryBatchOpsCancellation checks the batch honors its context.
func TestQueryBatchOpsCancellation(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	set, err := NewDiscreteSet(randomDiscretePoints(r, 10, 3))
	if err != nil {
		t.Fatal(err)
	}
	ix, err := New(set)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ix.QueryBatchOps(ctx, []Request{{Q: Pt(1, 1), Op: OpNonzero}}, 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	// An empty batch is a no-op without cancellation.
	if res, err := ix.QueryBatchOps(context.Background(), nil, 4); err != nil || res != nil {
		t.Fatalf("empty batch: %v %v", res, err)
	}
}
