// Fleet: a moving-object-database scenario with discrete uncertainty,
// after [CKP04]'s motivating setting ("querying imprecise data in moving
// object environments").
//
// A dispatch system tracks taxis that report positions intermittently;
// between reports each taxi's position is one of its recent pings with
// a recency-weighted probability. A rider requests a pickup: the system
// must shortlist taxis that could be closest (NN≠0, Theorem 3.2) and rank
// them by the probability of actually being closest, comparing three
// pnn.Index quantifiers — the exact sweep (Eq. 2), spiral search
// (Theorem 4.7) with its one-sided ε guarantee, and the Monte Carlo
// estimator (Theorem 4.3). A burst of pickups is then answered as one
// concurrent QueryBatchOps call.
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"math/rand"
	"sort"
	"time"

	"pnn"
)

func main() {
	r := rand.New(rand.NewSource(42))

	// 200 taxis; each has 2–6 recent pings along a short random walk, with
	// geometrically decaying weights (most recent ping most likely).
	const nTaxis = 200
	taxis := make([]pnn.DiscretePoint, nTaxis)
	for i := range taxis {
		k := 2 + r.Intn(5)
		x, y := r.Float64()*1000, r.Float64()*1000
		locs := make([]pnn.Point, k)
		w := make([]float64, k)
		sum := 0.0
		for t := 0; t < k; t++ {
			locs[t] = pnn.Pt(x, y)
			x += r.NormFloat64() * 60
			y += r.NormFloat64() * 60
			w[t] = math.Pow(0.85, float64(t))
			sum += w[t]
		}
		for t := range w {
			w[t] /= sum
		}
		taxis[i] = pnn.DiscretePoint{Locations: locs, Weights: w}
	}
	set, err := pnn.NewDiscreteSet(taxis)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fleet: %d taxis, max pings %d, weight spread ρ=%.1f\n",
		set.Len(), set.K(), set.Spread())

	// Three engines over the same fleet, differing only in quantifier.
	const eps = 0.01
	exactIdx, err := pnn.New(set)
	if err != nil {
		log.Fatal(err)
	}
	spiralIdx, err := pnn.New(set, pnn.WithQuantifier(pnn.SpiralSearch(eps)))
	if err != nil {
		log.Fatal(err)
	}
	mcIdx, err := pnn.New(set, pnn.WithQuantifier(pnn.MonteCarloBudget(2000)), pnn.WithSeed(42))
	if err != nil {
		log.Fatal(err)
	}

	pickup := pnn.Pt(500, 500)
	start := time.Now()
	shortlist, err := exactIdx.Nonzero(pickup)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\npickup at %v: %d candidate taxis (%v)\n",
		pickup, len(shortlist), time.Since(start))

	exact, _ := exactIdx.Probabilities(pickup)
	approx, _ := spiralIdx.Probabilities(pickup)
	est, _ := mcIdx.Probabilities(pickup)

	type row struct {
		taxi                  int
		exact, spiral, mcProb float64
	}
	var rows []row
	for _, taxi := range shortlist {
		if exact[taxi] < 0.005 {
			continue
		}
		rows = append(rows, row{taxi, exact[taxi], approx[taxi], est[taxi]})
	}
	sort.Slice(rows, func(a, b int) bool { return rows[a].exact > rows[b].exact })
	fmt.Printf("\nranking (π > 0.005), ε=%.2f\n", eps)
	fmt.Println("taxi   exact    spiral   monte-carlo")
	for _, rw := range rows {
		fmt.Printf("%-6d %.4f   %.4f   %.4f\n", rw.taxi, rw.exact, rw.spiral, rw.mcProb)
	}

	// Verify the spiral guarantee on this query: π̂ ≤ π ≤ π̂ + ε.
	worst := 0.0
	for i := range exact {
		if approx[i] > exact[i]+1e-9 {
			log.Fatalf("spiral overestimated taxi %d", i)
		}
		worst = math.Max(worst, exact[i]-approx[i])
	}
	fmt.Printf("\nspiral one-sided error on this query: %.5f (guarantee ≤ %.2f)\n", worst, eps)

	// Rush hour: 500 pickups at once, answered as one deterministic
	// concurrent batch.
	pickups := make([]pnn.Point, 500)
	for i := range pickups {
		pickups[i] = pnn.Pt(r.Float64()*1000, r.Float64()*1000)
	}
	reqs := make([]pnn.Request, len(pickups))
	for i, p := range pickups {
		reqs[i] = pnn.Request{Q: p, Op: pnn.OpNonzero}
	}
	start = time.Now()
	results, err := spiralIdx.QueryBatchOps(context.Background(), reqs, 8)
	if err != nil {
		log.Fatal(err)
	}
	el := time.Since(start)
	totalCands := 0
	for _, res := range results {
		totalCands += len(res.Nonzero)
	}
	fmt.Printf("\nbatch: %d pickups in %v (%v/query), avg %.1f candidates\n",
		len(pickups), el.Round(time.Millisecond),
		(el / time.Duration(len(pickups))).Round(time.Microsecond),
		float64(totalCands)/float64(len(pickups)))
}
