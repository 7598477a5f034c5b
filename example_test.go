package pnn_test

import (
	"context"
	"fmt"

	"pnn"
)

// Two couriers with uncertain positions; which can be nearest to the
// pickup, and with what probability?
func ExampleNew() {
	set, err := pnn.NewDiscreteSet([]pnn.DiscretePoint{
		{Locations: []pnn.Point{{X: 1, Y: 0}, {X: 3, Y: 0}}, Weights: []float64{0.4, 0.6}},
		{Locations: []pnn.Point{{X: 0, Y: 2}}},
	})
	if err != nil {
		panic(err)
	}
	idx, err := pnn.New(set)
	if err != nil {
		panic(err)
	}
	q := pnn.Pt(0, 0)
	candidates, _ := idx.Nonzero(q)
	fmt.Println("candidates:", candidates)
	probs, _ := idx.PositiveProbabilities(q, 0)
	for _, ip := range probs {
		fmt.Printf("π_%d = %.1f\n", ip.Index, ip.Prob)
	}
	// Output:
	// candidates: [0 1]
	// π_0 = 0.4
	// π_1 = 0.6
}

// Disk-shaped uncertainty regions: the nonzero-NN index answers exactly.
func ExampleIndex_Nonzero() {
	set, err := pnn.NewContinuousSet([]pnn.DiskPoint{
		{Support: pnn.Disk{Center: pnn.Pt(0, 0), R: 1}},
		{Support: pnn.Disk{Center: pnn.Pt(10, 0), R: 1}},
		{Support: pnn.Disk{Center: pnn.Pt(5, 4), R: 2}},
	})
	if err != nil {
		panic(err)
	}
	idx, err := pnn.New(set)
	if err != nil {
		panic(err)
	}
	a, _ := idx.Nonzero(pnn.Pt(0, 0))
	b, _ := idx.Nonzero(pnn.Pt(5, 0))
	fmt.Println(a)
	fmt.Println(b)
	// Output:
	// [0]
	// [0 1 2]
}

// Spiral search gives deterministic one-sided estimates: π̂ ≤ π ≤ π̂ + ε.
func ExampleIndex_Threshold() {
	set, err := pnn.NewDiscreteSet([]pnn.DiscretePoint{
		{Locations: []pnn.Point{{X: 1, Y: 0}}},
		{Locations: []pnn.Point{{X: 2, Y: 0}, {X: 50, Y: 0}}, Weights: []float64{0.5, 0.5}},
		{Locations: []pnn.Point{{X: 60, Y: 0}}},
	})
	if err != nil {
		panic(err)
	}
	idx, err := pnn.New(set, pnn.WithQuantifier(pnn.SpiralSearch(0.01)))
	if err != nil {
		panic(err)
	}
	res, _ := idx.Threshold(pnn.Pt(0, 0), 0.3)
	fmt.Println("certainly above 0.3:", res.Certain)
	// Output:
	// certainly above 0.3: [0]
}

// QueryBatchOps answers a batch of requests, each naming its own method,
// concurrently with results in input order, identical for every worker
// count.
func ExampleIndex_QueryBatchOps() {
	set, err := pnn.NewDiscreteSet([]pnn.DiscretePoint{
		{Locations: []pnn.Point{{X: 0, Y: 0}}},
		{Locations: []pnn.Point{{X: 10, Y: 0}}},
	})
	if err != nil {
		panic(err)
	}
	idx, err := pnn.New(set)
	if err != nil {
		panic(err)
	}
	reqs := []pnn.Request{
		{Q: pnn.Pt(1, 0), Op: pnn.OpNonzero},
		{Q: pnn.Pt(1, 0), Op: pnn.OpProbabilities},
		{Q: pnn.Pt(9, 0), Op: pnn.OpNonzero},
		{Q: pnn.Pt(9, 0), Op: pnn.OpTopK, K: 1},
	}
	results, err := idx.QueryBatchOps(context.Background(), reqs, 8)
	if err != nil {
		panic(err)
	}
	fmt.Println("q0: candidates", results[0].Nonzero, "π", results[1].Probabilities)
	fmt.Println("q1: candidates", results[2].Nonzero, "top-1", results[3].Ranked)
	// Output:
	// q0: candidates [0] π [1 0]
	// q1: candidates [1] top-1 [{1 1}]
}
