package pnn

// Cross-structure integration tests: every way of answering the same
// question must agree (up to each method's documented tolerance) on shared
// randomized workloads. These are the end-to-end counterparts of the
// per-module oracle tests.

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"pnn/internal/baseline"
	"pnn/internal/quantify"
)

// All NN≠0 structures for disks answer identically away from boundaries:
// brute oracle, two-stage index, diagram point location.
func TestAllContinuousNonzeroStructuresAgree(t *testing.T) {
	r := rand.New(rand.NewSource(100))
	for trial := 0; trial < 3; trial++ {
		set, err := NewContinuousSet(randomDiskPoints(r, 12))
		if err != nil {
			t.Fatal(err)
		}
		ix := mustNew(t, set)
		diag := mustNew(t, set, WithNonzeroBackend(BackendDiagram))
		diagMiss := 0
		for probe := 0; probe < 300; probe++ {
			q := Pt(r.Float64()*120-10, r.Float64()*120-10)
			brute := baseline.NonzeroBrute(set.disks, toGeom(q))
			if !slices.Equal(mustNonzero(t, ix, q), brute) {
				t.Fatalf("index vs brute at %v", q)
			}
			if !slices.Equal(mustNonzero(t, diag, q), brute) {
				diagMiss++ // flattening-tolerance boundary effects only
			}
		}
		if diagMiss > 15 {
			t.Fatalf("diagram missed %d/300 (tolerance budget 15)", diagMiss)
		}
	}
}

// All quantification engines agree within their guarantees on the same
// workload: exact sweep, V_Pr lookup, spiral (one-sided ε), MC (±ε whp).
func TestAllQuantifiersAgree(t *testing.T) {
	r := rand.New(rand.NewSource(101))
	set, err := NewDiscreteSet(randomDiscretePoints(r, 6, 2))
	if err != nil {
		t.Fatal(err)
	}
	eps := 0.05
	vpr := mustNew(t, set, WithQuantifier(VPrDiagram(-20, -20, 120, 120)))
	sp := mustNew(t, set, WithQuantifier(SpiralSearch(eps)))
	mc := mustNew(t, set, WithQuantifier(MonteCarloBudget(4000)), WithSeed(101))
	vprMiss := 0
	for probe := 0; probe < 60; probe++ {
		q := Pt(r.Float64()*100, r.Float64()*100)
		exact := quantify.ExactAll(set.dists, toGeom(q))
		// V_Pr: exact up to cell-boundary roundoff.
		vq := mustProbabilities(t, vpr, q)
		for i := range exact {
			if math.Abs(vq[i]-exact[i]) > 1e-9 {
				vprMiss++
				break
			}
		}
		// Spiral: one-sided.
		sq := mustProbabilities(t, sp, q)
		for i := range exact {
			if sq[i] > exact[i]+1e-9 || exact[i] > sq[i]+eps+1e-9 {
				t.Fatalf("spiral bound at %v idx %d: %v vs %v", q, i, sq[i], exact[i])
			}
		}
		// MC: two-sided with slack (4000 rounds → ~0.05 at 3σ).
		mq := mustProbabilities(t, mc, q)
		for i := range exact {
			if math.Abs(mq[i]-exact[i]) > 0.07 {
				t.Fatalf("MC at %v idx %d: %v vs %v", q, i, mq[i], exact[i])
			}
		}
	}
	if vprMiss > 2 {
		t.Fatalf("V_Pr missed %d/60", vprMiss)
	}
}

// Certain points (radius 0 / single location) collapse every structure to
// the classical Voronoi answer.
func TestCertainPointCollapse(t *testing.T) {
	r := rand.New(rand.NewSource(102))
	n := 30
	disks := make([]DiskPoint, n)
	discs := make([]DiscretePoint, n)
	for i := range disks {
		p := Pt(r.Float64()*100, r.Float64()*100)
		disks[i] = DiskPoint{Support: Disk{Center: p, R: 0}}
		discs[i] = DiscretePoint{Locations: []Point{p}}
	}
	cset, err := NewContinuousSet(disks)
	if err != nil {
		t.Fatal(err)
	}
	dset, err := NewDiscreteSet(discs)
	if err != nil {
		t.Fatal(err)
	}
	cix := mustNew(t, cset)
	dix := mustNew(t, dset)
	for probe := 0; probe < 200; probe++ {
		q := Pt(r.Float64()*100, r.Float64()*100)
		want := nearestIndex(disks, q)
		cg := mustNonzero(t, cix, q)
		dg := mustNonzero(t, dix, q)
		if len(cg) != 1 || cg[0] != want {
			t.Fatalf("continuous collapse at %v: %v want [%d]", q, cg, want)
		}
		if len(dg) != 1 || dg[0] != want {
			t.Fatalf("discrete collapse at %v: %v want [%d]", q, dg, want)
		}
		// The probability vector is an indicator, for discrete points
		// and for zero-radius disks alike.
		if pi := quantify.ExactAll(dset.dists, toGeom(q)); math.Abs(pi[want]-1) > 1e-12 {
			t.Fatalf("certain-point probability: %v", pi[want])
		}
		for i, p := range mustProbabilities(t, cix, q) {
			indicator := 0.0
			if i == want {
				indicator = 1
			}
			if p != indicator {
				t.Fatalf("continuous certain-point vector at %v: π_%d = %v, want %v", q, i, p, indicator)
			}
		}
	}
}

func nearestIndex(disks []DiskPoint, q Point) int {
	best, bd := -1, math.Inf(1)
	for i, d := range disks {
		dx := d.Support.Center.X - q.X
		dy := d.Support.Center.Y - q.Y
		if v := dx*dx + dy*dy; v < bd {
			bd = v
			best = i
		}
	}
	return best
}

// Monte Carlo on a continuous set and numeric integration agree.
func TestContinuousQuantifiersAgree(t *testing.T) {
	set, err := NewContinuousSet([]DiskPoint{
		{Support: Disk{Center: Pt(0, 0), R: 2}},
		{Support: Disk{Center: Pt(5, 1), R: 1.5}},
		{Support: Disk{Center: Pt(2, 6), R: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	mc := mustNew(t, set, WithQuantifier(MonteCarloBudget(20000)), WithSeed(103))
	for _, q := range []Point{{X: 2, Y: 2}, {X: 0, Y: 4}} {
		est := mustProbabilities(t, mc, q)
		ref := baseline.IntegrateAll(set.conts, toGeom(q), 512)
		for i := range ref {
			if math.Abs(est[i]-ref[i]) > 0.02 {
				t.Fatalf("MC vs integration at %v idx %d: %v vs %v", q, i, est[i], ref[i])
			}
		}
	}
	// Supports that are small relative to their distance from q, down to
	// R² below float64 precision relative to d², and a zero radius: a
	// point mass, whose π is the chance every other point lies farther.
	agree := func(name string, pts []DiskPoint, q Point) {
		t.Helper()
		set, err := NewContinuousSet(pts)
		if err != nil {
			t.Fatal(err)
		}
		exact := mustProbabilities(t, mustNew(t, set), q)
		est := mustProbabilities(t, mustNew(t, set, WithQuantifier(MonteCarloBudget(20000)), WithSeed(103)), q)
		sum := 0.0
		for i := range exact {
			sum += exact[i]
			if math.Abs(est[i]-exact[i]) > 0.02 {
				t.Fatalf("%s: MC vs integration idx %d: %v vs %v", name, i, est[i], exact[i])
			}
		}
		if math.Abs(sum-1) > 1e-2 {
			t.Fatalf("%s: Σπ = %v, vector %v", name, sum, exact)
		}
	}
	for _, dens := range []Density{Uniform, TruncatedGaussian} {
		for _, r := range []float64{0, 1e-12, 1e-9, 1e-8, 3e-8} {
			agree(fmt.Sprintf("mixed set (density %d, R %g)", dens, r), []DiskPoint{
				{Support: Disk{Center: Pt(1, 0), R: r}, Density: dens},
				{Support: Disk{Center: Pt(1.5, 0), R: 1}, Density: dens},
				{Support: Disk{Center: Pt(-1.2, 0), R: 0.5}, Density: dens},
			}, Pt(0, 0))
		}
		// Two coincident tiny disks tie at 1/2 each.
		for _, r := range []float64{2e-7, 1e-9, 1e-12} {
			tiny := DiskPoint{Support: Disk{Center: Pt(1, 0), R: r}, Density: dens}
			agree(fmt.Sprintf("coincident tiny disks (density %d, R %g)", dens, r), []DiskPoint{tiny, tiny}, Pt(0, 0))
		}
		// Two overlapping unit disks far from the query.
		for _, far := range []float64{3e6, 1e9} {
			agree(fmt.Sprintf("far disks (density %d, at %g)", dens, far), []DiskPoint{
				{Support: Disk{Center: Pt(far, 0), R: 1}, Density: dens},
				{Support: Disk{Center: Pt(far+0.5, 0.3), R: 1}, Density: dens},
			}, Pt(0, 0))
		}
	}
}

// The probability mass reported by every estimator sums to ≈ 1.
func TestProbabilityMassConservation(t *testing.T) {
	r := rand.New(rand.NewSource(104))
	set, err := NewDiscreteSet(randomDiscretePoints(r, 15, 3))
	if err != nil {
		t.Fatal(err)
	}
	q := Pt(50, 50)
	sum := func(xs []float64) float64 {
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s
	}
	if s := sum(mustProbabilities(t, mustNew(t, set), q)); math.Abs(s-1) > 1e-9 {
		t.Fatalf("exact mass %v", s)
	}
	// Spiral may undercount by at most ε per point but the total deficit
	// is bounded by the retrieved tail mass; with ε=0.01 on this workload
	// it stays near 1.
	if s := sum(mustProbabilities(t, mustNew(t, set, WithQuantifier(SpiralSearch(0.01))), q)); s < 0.9 || s > 1+1e-9 {
		t.Fatalf("spiral mass %v", s)
	}
}
