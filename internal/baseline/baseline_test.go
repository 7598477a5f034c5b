package baseline

import (
	"math"
	"math/rand"
	"testing"

	"pnn/internal/dist"
	"pnn/internal/geom"
)

func TestIntegrateSymmetricDisks(t *testing.T) {
	// Two congruent disjoint uniform disks, query on the symmetry axis:
	// π_0 = π_1 = 1/2.
	pts := []dist.Continuous{
		dist.UniformDisk{D: geom.Dsk(0, 0, 1)},
		dist.UniformDisk{D: geom.Dsk(10, 0, 1)},
	}
	pi := IntegrateAll(pts, geom.Pt(5, 0), 512)
	if math.Abs(pi[0]-0.5) > 1e-3 || math.Abs(pi[1]-0.5) > 1e-3 {
		t.Fatalf("π = %v", pi)
	}
}

func TestIntegrateDominatedDisk(t *testing.T) {
	// A disk strictly farther than another in every instantiation has
	// probability 0; the near one has probability 1.
	pts := []dist.Continuous{
		dist.UniformDisk{D: geom.Dsk(0, 0, 1)},
		dist.UniformDisk{D: geom.Dsk(50, 0, 1)},
	}
	pi := IntegrateAll(pts, geom.Pt(0, 0), 512)
	if math.Abs(pi[0]-1) > 1e-6 {
		t.Fatalf("π_0 = %v want 1", pi[0])
	}
	if pi[1] != 0 {
		t.Fatalf("π_1 = %v want 0", pi[1])
	}
}

func TestIntegratePointMass(t *testing.T) {
	// A zero-radius disk is a point mass: its π is the chance every
	// other point lies farther, not the 0 a quadrature over an empty
	// interval gives.
	mixed := []dist.Continuous{
		dist.UniformDisk{D: geom.Dsk(1, 0, 0)},
		dist.UniformDisk{D: geom.Dsk(1.5, 0, 1)},
		dist.UniformDisk{D: geom.Dsk(-1.2, 0, 0.5)},
	}
	pi := IntegrateAll(mixed, geom.Pt(0, 0), 512)
	if sum := pi[0] + pi[1] + pi[2]; math.Abs(sum-1) > 1e-2 || math.Abs(pi[0]-0.67) > 0.01 {
		t.Fatalf("mixed π = %v (Σ %v)", pi, sum)
	}
	// Certain points alone: the nearest gets exactly 1, the rest 0, and
	// two at the same distance tie at 0 (a measure-zero query).
	certain := []dist.Continuous{
		dist.UniformDisk{D: geom.Dsk(1, 0, 0)},
		dist.UniformDisk{D: geom.Dsk(3, 0, 0)},
		dist.UniformDisk{D: geom.Dsk(-3, 0, 0)},
	}
	if pi := IntegrateAll(certain, geom.Pt(0, 0), 64); pi[0] != 1 || pi[1] != 0 || pi[2] != 0 {
		t.Fatalf("certain π = %v, want [1 0 0]", pi)
	}
	if pi := IntegrateAll(certain[1:], geom.Pt(0, 0), 64); pi[0] != 0 || pi[1] != 0 {
		t.Fatalf("tied certain π = %v, want [0 0]", pi)
	}
}

func TestIntegrateSumsToOne(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 5; trial++ {
		n := 2 + r.Intn(4)
		pts := make([]dist.Continuous, n)
		for i := range pts {
			pts[i] = dist.UniformDisk{
				D: geom.Dsk(r.Float64()*20, r.Float64()*20, 0.5+r.Float64()*2),
			}
		}
		q := geom.Pt(r.Float64()*20, r.Float64()*20)
		pi := IntegrateAll(pts, q, 1024)
		sum := 0.0
		for _, p := range pi {
			sum += p
		}
		if math.Abs(sum-1) > 5e-3 {
			t.Fatalf("trial %d: Σπ = %v", trial, sum)
		}
	}
}

func TestIntegrateAgainstMonteCarlo(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	uds := []dist.UniformDisk{
		{D: geom.Dsk(0, 0, 2)},
		{D: geom.Dsk(3, 1, 1.5)},
		{D: geom.Dsk(-1, 4, 1)},
	}
	pts := make([]dist.Continuous, len(uds))
	discs := make([]*dist.Discrete, len(uds))
	for i, u := range uds {
		pts[i] = u
		discs[i] = dist.DiscretizeContinuous(u, 400, r)
	}
	q := geom.Pt(1, 1)
	want := IntegrateAll(pts, q, 1024)
	got := MonteCarloPerQuery(discs, q, 60000, r)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 0.02 {
			t.Fatalf("π_%d: integration %v vs MC %v", i, want[i], got[i])
		}
	}
}

func TestMonteCarloPerQueryDegenerate(t *testing.T) {
	pi := MonteCarloPerQuery(nil, geom.Pt(0, 0), 10, rand.New(rand.NewSource(3)))
	if len(pi) != 0 {
		t.Fatal("no points, no probabilities")
	}
}
