package pnn

// One benchmark family per cmd/pnnbench experiment (ids E1–E15; `go run
// ./cmd/pnnbench -experiment list` names them). pnnbench prints the
// corresponding accuracy/complexity tables; these benches measure the
// time/allocation side with testing.B so `go test -bench=. -benchmem`
// regenerates every performance row.

import (
	"fmt"
	"math/rand"
	"testing"

	"pnn/internal/baseline"
	"pnn/internal/core"
	"pnn/internal/dist"
	"pnn/internal/geom"
	"pnn/internal/nnq"
	"pnn/internal/quantify"
	"pnn/internal/rtree"
	"pnn/internal/workload"
)

// E1 — Figure 1(b): evaluating the distance pdf of a uniform-disk point.
func BenchmarkFig1DistancePDF(b *testing.B) {
	u := dist.UniformDisk{D: geom.Dsk(0, 0, 5)}
	q := geom.Pt(6, 8)
	for i := 0; i < b.N; i++ {
		u.DistPDF(q, 5+10*float64(i%100)/100)
	}
}

// E2 — Theorem 2.5: building V≠0 (complexity-count mode) on random disks.
func BenchmarkBuildNonzeroDiagram(b *testing.B) {
	for _, n := range []int{8, 12, 16, 24} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			r := rand.New(rand.NewSource(1))
			disks := workload.RandomDisks(r, n, 100, 1, 5)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				core.BuildDiagram(disks, core.DiagramOptions{SkipSubdivision: true})
			}
		})
	}
}

// E3/E4 — Theorems 2.7/2.8: the lower-bound constructions.
func BenchmarkBuildLowerBoundCubic(b *testing.B) {
	for _, n := range []int{8, 12, 16} {
		b.Run(fmt.Sprintf("mixed/n=%d", n), func(b *testing.B) {
			disks := workload.LowerBoundCubic(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				core.BuildDiagram(disks, core.DiagramOptions{SkipSubdivision: true})
			}
		})
	}
	for _, n := range []int{9, 12, 15} {
		b.Run(fmt.Sprintf("equal/n=%d", n), func(b *testing.B) {
			disks := workload.LowerBoundCubicEqualRadii(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				core.BuildDiagram(disks, core.DiagramOptions{SkipSubdivision: true})
			}
		})
	}
}

// E5 — Theorem 2.10: disjoint disks.
func BenchmarkBuildDisjointDiagram(b *testing.B) {
	for _, lambda := range []float64{1, 4} {
		b.Run(fmt.Sprintf("lambda=%g", lambda), func(b *testing.B) {
			r := rand.New(rand.NewSource(2))
			disks := workload.DisjointDisks(r, 16, lambda)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				core.BuildDiagram(disks, core.DiagramOptions{SkipSubdivision: true})
			}
		})
	}
}

// E6 — Theorem 2.14: the discrete diagram.
func BenchmarkBuildDiscreteDiagram(b *testing.B) {
	for _, n := range []int{4, 6, 8} {
		b.Run(fmt.Sprintf("n=%d/k=2", n), func(b *testing.B) {
			r := rand.New(rand.NewSource(3))
			pts := workload.Supports(workload.RandomDiscrete(r, n, 2, 60, 6, 1))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				core.BuildDiscreteDiagram(pts, core.DiscreteDiagramOptions{SkipSubdivision: true})
			}
		})
	}
}

// E7 — Theorem 2.11: point-location queries on the diagram.
func BenchmarkDiagramQuery(b *testing.B) {
	r := rand.New(rand.NewSource(4))
	disks := workload.RandomDisks(r, 12, 100, 1, 5)
	d := core.BuildDiagram(disks, core.DiagramOptions{})
	qs := workload.QueryPoints(r, 1024, workload.DisksBBox(disks))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Query(qs[i%len(qs)])
	}
}

// E8 — Theorem 3.1: the near-linear continuous NN≠0 index.
func BenchmarkNonzeroQueryContinuous(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			r := rand.New(rand.NewSource(5))
			extent := 10 * float64(n)
			disks := workload.RandomDisks(r, n, extent/100, 0.1, 1)
			ix := nnq.NewContinuous(disks)
			qs := workload.QueryPoints(r, 1024, workload.DisksBBox(disks))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ix.Query(qs[i%len(qs)])
			}
		})
	}
}

// E9 — Theorem 3.2: the discrete NN≠0 index.
func BenchmarkNonzeroQueryDiscrete(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("n=%d/k=4", n), func(b *testing.B) {
			r := rand.New(rand.NewSource(6))
			pts := workload.Supports(workload.RandomDiscrete(r, n, 4, 1000, 1, 1))
			ix := nnq.NewDiscrete(pts)
			bb := geom.EmptyBBox()
			for _, p := range pts {
				bb = bb.Union(geom.BBoxOf(p.Locs))
			}
			qs := workload.QueryPoints(r, 1024, bb)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ix.Query(qs[i%len(qs)])
			}
		})
	}
}

// E10 — Theorem 4.2: V_Pr construction and queries, plus the exact sweep.
func BenchmarkVPrBuild(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	pts := workload.VPrLowerBound(r, 4)
	box := geom.BBox{MinX: -2, MinY: -2, MaxX: 2, MaxY: 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		quantify.NewVPr(pts, box)
	}
}

func BenchmarkVPrQuery(b *testing.B) {
	r := rand.New(rand.NewSource(8))
	pts := workload.VPrLowerBound(r, 4)
	box := geom.BBox{MinX: -2, MinY: -2, MaxX: 2, MaxY: 2}
	v := quantify.NewVPr(pts, box)
	qs := workload.QueryPoints(r, 1024, box)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.Query(qs[i%len(qs)])
	}
}

func BenchmarkExactQuantify(b *testing.B) {
	for _, n := range []int{100, 1000} {
		b.Run(fmt.Sprintf("n=%d/k=4", n), func(b *testing.B) {
			r := rand.New(rand.NewSource(9))
			pts := workload.RandomDiscrete(r, n, 4, 1000, 5, 2)
			q := geom.Pt(500, 500)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				quantify.ExactAll(pts, q)
			}
		})
	}
}

// E11 — Theorem 4.3: Monte Carlo preprocessing and queries.
func BenchmarkMonteCarloPreprocess(b *testing.B) {
	r := rand.New(rand.NewSource(10))
	pts := workload.RandomDiscrete(r, 100, 4, 300, 5, 2)
	s := quantify.SampleCountDiscrete(100, 4, 0.1, 0.05)
	b.ReportMetric(float64(s), "rounds")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		quantify.NewMonteCarloDiscrete(pts, s, r)
	}
}

func BenchmarkMonteCarloQuery(b *testing.B) {
	for _, eps := range []float64{0.2, 0.1} {
		b.Run(fmt.Sprintf("eps=%g", eps), func(b *testing.B) {
			r := rand.New(rand.NewSource(11))
			pts := workload.RandomDiscrete(r, 100, 4, 300, 5, 2)
			s := quantify.SampleCountDiscrete(100, 4, eps, 0.05)
			mc := quantify.NewMonteCarloDiscrete(pts, s, r)
			q := geom.Pt(150, 150)
			var buf []quantify.IndexProb
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = mc.EstimatePositiveInto(q, buf)
			}
		})
	}
}

// E12 — Theorem 4.5: continuous Monte Carlo round instantiation.
func BenchmarkMonteCarloContinuousPreprocess(b *testing.B) {
	r := rand.New(rand.NewSource(12))
	ps := make([]dist.Continuous, 100)
	for i := range ps {
		ps[i] = dist.UniformDisk{D: geom.Dsk(r.Float64()*300, r.Float64()*300, 1+r.Float64()*2)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		quantify.NewMonteCarloContinuous(ps, 200, r)
	}
}

// E13 — Theorem 4.7: spiral-search queries across spreads.
func BenchmarkSpiralSearch(b *testing.B) {
	for _, spread := range []float64{1, 4, 8} {
		b.Run(fmt.Sprintf("rho=%g", spread), func(b *testing.B) {
			r := rand.New(rand.NewSource(13))
			pts := workload.RandomDiscrete(r, 1000, 4, 1000, 4, spread)
			sp := quantify.NewSpiral(pts)
			q := geom.Pt(500, 500)
			var buf []quantify.IndexProb
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = sp.EstimatePositiveInto(q, 0.05, buf)
			}
		})
	}
}

// E15 — baselines: brute force and the R-tree branch-and-prune of [CKP04]
// against the Theorem 3.1 index (same workload as E8 at n = 10000).
func BenchmarkBaselines(b *testing.B) {
	r := rand.New(rand.NewSource(14))
	disks := workload.RandomDisks(r, 10000, 1000, 0.1, 1)
	ix := nnq.NewContinuous(disks)
	rt := rtree.Build(disks)
	qs := workload.QueryPoints(r, 1024, workload.DisksBBox(disks))
	b.Run("index", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ix.Query(qs[i%len(qs)])
		}
	})
	b.Run("rtree", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rt.NonzeroQuery(qs[i%len(qs)])
		}
	})
	b.Run("brute", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			baseline.NonzeroBrute(disks, qs[i%len(qs)])
		}
	})
}

// Public-API end-to-end benches (what a downstream user measures).
func BenchmarkPublicDiscreteExact(b *testing.B) {
	r := rand.New(rand.NewSource(15))
	idx, err := New(mustDiscreteSet(b, r, 500, 4))
	if err != nil {
		b.Fatal(err)
	}
	q := Pt(500, 500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := idx.Probabilities(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPublicSpiral(b *testing.B) {
	r := rand.New(rand.NewSource(16))
	idx, err := New(mustDiscreteSet(b, r, 500, 4), WithQuantifier(SpiralSearch(0.05)))
	if err != nil {
		b.Fatal(err)
	}
	q := Pt(500, 500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := idx.Probabilities(q); err != nil {
			b.Fatal(err)
		}
	}
}

func mustDiscreteSet(b *testing.B, r *rand.Rand, n, k int) *DiscreteSet {
	b.Helper()
	pts := make([]DiscretePoint, n)
	for i := range pts {
		cx, cy := r.Float64()*1000, r.Float64()*1000
		locs := make([]Point, k)
		for t := range locs {
			locs[t] = Pt(cx+r.Float64()*8-4, cy+r.Float64()*8-4)
		}
		pts[i] = DiscretePoint{Locations: locs}
	}
	set, err := NewDiscreteSet(pts)
	if err != nil {
		b.Fatal(err)
	}
	return set
}

// --- Sparse quantification hot path (PR 4) ---------------------------------
//
// The acceptance benchmarks of the sparse path: TopK/Threshold/
// PositiveProbabilities on a 100k-point discrete set through an
// approximate quantifier, sparse (the facade's path) vs dense (ranking
// the full π vector). The sparse side must show at least 5× fewer
// allocs/op — it never materializes the N-length vector.

func sparseBenchIndex(b *testing.B, n int, opts ...Option) *Index {
	b.Helper()
	r := rand.New(rand.NewSource(21))
	set := mustDiscreteSet(b, r, n, 2)
	idx, err := New(set, opts...)
	if err != nil {
		b.Fatal(err)
	}
	return idx
}

func benchQueries(n int) []Point {
	r := rand.New(rand.NewSource(99))
	qs := make([]Point, 256)
	for i := range qs {
		qs[i] = Pt(r.Float64()*1000, r.Float64()*1000)
	}
	return qs
}

func BenchmarkSparseTopK100k(b *testing.B) {
	idx := sparseBenchIndex(b, 100_000, WithQuantifier(SpiralSearch(0.05)))
	qs := benchQueries(100_000)
	b.Run("sparse", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := idx.TopK(qs[i%len(qs)], 5); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("dense", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			denseTopK(idx, qs[i%len(qs)], 5)
		}
	})
}

func BenchmarkSparseThreshold100k(b *testing.B) {
	idx := sparseBenchIndex(b, 100_000, WithQuantifier(SpiralSearch(0.05)))
	qs := benchQueries(100_000)
	b.Run("sparse", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := idx.Threshold(qs[i%len(qs)], 0.2); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("dense", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			denseThreshold(idx, qs[i%len(qs)], 0.2)
		}
	})
}

func BenchmarkSparsePositive100k(b *testing.B) {
	idx := sparseBenchIndex(b, 100_000, WithQuantifier(SpiralSearch(0.05)))
	qs := benchQueries(100_000)
	b.Run("sparse", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := idx.PositiveProbabilities(qs[i%len(qs)], 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("dense", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			densePositive(idx, qs[i%len(qs)], 0)
		}
	})
}

// Monte Carlo at a smaller N (the 100k preprocessing stores s kd-trees):
// the sparse report touches at most s owners per query.
func BenchmarkSparseTopKMonteCarlo(b *testing.B) {
	idx := sparseBenchIndex(b, 20_000, WithQuantifier(MonteCarloBudget(64)), WithSeed(2))
	qs := benchQueries(20_000)
	b.Run("sparse", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := idx.TopK(qs[i%len(qs)], 5); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("dense", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			denseTopK(idx, qs[i%len(qs)], 5)
		}
	})
}
