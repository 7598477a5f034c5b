// Command pnnbench regenerates the quantitative results of the paper.
// `pnnbench -experiment list` prints every experiment id with the figure,
// theorem or ablation it reproduces.
//
// Usage:
//
//	pnnbench -experiment all            # everything (slow)
//	pnnbench -experiment lb-cubic       # one experiment
//	pnnbench -experiment complexity-random -quick
//
// Output is plain text tables on stdout, one row per parameter setting, so
// runs can be diffed across machines. With -json DIR each experiment
// additionally writes a machine-readable BENCH_<id>.json record (name,
// params, ns_op, allocs) so the performance trajectory can be tracked
// across commits; the "microbench" experiment records per-op hot-path
// numbers via testing.Benchmark.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"time"

	"pnn"
	"pnn/internal/baseline"
	"pnn/internal/core"
	"pnn/internal/dist"
	"pnn/internal/envelope"
	"pnn/internal/geom"
	"pnn/internal/linf"
	"pnn/internal/nnq"
	"pnn/internal/obs"
	"pnn/internal/quantify"
	"pnn/internal/rtree"
	"pnn/internal/stats"
	"pnn/internal/workload"
	"pnn/server"
)

var (
	experiment = flag.String("experiment", "all", "experiment id (see -experiment list) or 'all'")
	quick      = flag.Bool("quick", false, "smaller parameter sweeps")
	seed       = flag.Int64("seed", 1, "random seed")
	jsonDir    = flag.String("json", "", "directory for BENCH_<id>.json records (empty disables)")
)

type exp struct {
	id   string
	desc string
	run  func()
}

func main() {
	flag.Parse()
	exps := []exp{
		{"fig1", "Figure 1(b): distance pdf of a uniform-disk point", expFig1},
		{"complexity-random", "Thm 2.5: V≠0 complexity on random disks", expComplexityRandom},
		{"lb-cubic", "Thm 2.7: Ω(n³) lower-bound construction", expLBCubic},
		{"lb-cubic-equal", "Thm 2.8: Ω(n³) with equal radii", expLBCubicEqual},
		{"disjoint-lambda", "Thm 2.10: disjoint disks, O(λn²)", expDisjointLambda},
		{"lb-quadratic", "Thm 2.10: Ω(n²) lower-bound construction", expLBQuadratic},
		{"complexity-discrete", "Thm 2.14: discrete V≠0 complexity O(kn³)", expComplexityDiscrete},
		{"ptloc", "Thm 2.11: diagram point-location queries", expPointLocation},
		{"nnq-continuous", "Thm 3.1: near-linear NN≠0 index (disks)", expNNQContinuous},
		{"nnq-discrete", "Thm 3.2: NN≠0 index (discrete)", expNNQDiscrete},
		{"vpr-complexity", "Lemma 4.1/Thm 4.2: V_Pr size and queries", expVPr},
		{"mc-error", "Thm 4.3: Monte Carlo error vs ε (discrete)", expMCError},
		{"mc-continuous", "Thm 4.5: Monte Carlo on continuous points", expMCContinuous},
		{"spiral", "Thm 4.7: spiral search error and cost", expSpiral},
		{"spiral-adversarial", "§4.3 Remark (i): light weights cannot be dropped", expSpiralAdversarial},
		{"baselines", "query-time comparison: diagram vs index vs R-tree vs brute", expBaselines},
		{"expected-vs-prob", "§1.2: expected-distance NN disagrees with probability ranking", expExpectedVsProb},
		{"linf", "§3 Remark (ii): L∞ metric with square regions", expLInf},
		{"facade-batch", "pnn.Index facade: QueryBatchOps throughput vs workers", expFacadeBatch},
		{"ablation-persist", "ablation: persistent vs explicit face-set storage (Thm 2.11)", expAblationPersist},
		{"ablation-envelope", "ablation: envelope grid resolution vs vertex counts", expAblationEnvelope},
		{"ablation-flatten", "ablation: arc flattening density vs query agreement", expAblationFlatten},
		{"microbench", "hot-path micro-benchmarks (ns/op, allocs/op)", expMicrobench},
	}
	if *experiment == "list" {
		for _, e := range exps {
			fmt.Printf("%-22s %s\n", e.id, e.desc)
		}
		return
	}
	if *jsonDir != "" {
		if err := os.MkdirAll(*jsonDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "pnnbench: -json: %v\n", err)
			os.Exit(1)
		}
	}
	ran := false
	for _, e := range exps {
		if *experiment == "all" || *experiment == e.id {
			fmt.Printf("== %s — %s\n", e.id, e.desc)
			var ms0 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			start := time.Now()
			e.run()
			el := time.Since(start)
			fmt.Printf("-- done in %v\n\n", el.Round(time.Millisecond))
			if *jsonDir != "" {
				var ms1 runtime.MemStats
				runtime.ReadMemStats(&ms1)
				writeBenchRecord(benchRecord{
					Name:   e.id,
					Desc:   e.desc,
					Params: map[string]any{"quick": *quick, "seed": *seed},
					NsOp:   el.Nanoseconds(),
					Ops:    1,
					Allocs: int64(ms1.Mallocs - ms0.Mallocs),
					Bytes:  int64(ms1.TotalAlloc - ms0.TotalAlloc),
				})
			}
			ran = true
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; use -experiment list\n", *experiment)
		os.Exit(2)
	}
}

func rng() *rand.Rand { return rand.New(rand.NewSource(*seed)) }

// E1 — Figure 1(b): the pdf of the distance between q = (6,8) and a point
// uniform on the disk of radius 5 at the origin.
func expFig1() {
	u := dist.UniformDisk{D: geom.Dsk(0, 0, 5)}
	q := geom.Pt(6, 8)
	fmt.Println("r      g_qi(r)   G_qi(r)")
	for r := 5.0; r <= 15.0+1e-9; r += 0.5 {
		fmt.Printf("%5.1f  %8.5f  %8.5f\n", r, u.DistPDF(q, r), u.DistCDF(q, r))
	}
}

// E2 — Theorem 2.5: complexity of V≠0 on random disks; the upper bound is
// O(n³), random inputs grow far slower (near-linear breakpoints dominate).
func expComplexityRandom() {
	ns := []int{8, 12, 16, 24, 32}
	if *quick {
		ns = []int{8, 12, 16}
	}
	trials := 3
	r := rng()
	var xs, ys []float64
	fmt.Println("n    vertices(avg)  breakpoints  crossings  build")
	for _, n := range ns {
		sumV, sumB, sumC := 0, 0, 0
		var el time.Duration
		for t := 0; t < trials; t++ {
			disks := workload.RandomDisks(r, n, 100, 1, 5)
			start := time.Now()
			d := core.BuildDiagram(disks, core.DiagramOptions{SkipSubdivision: true})
			el += time.Since(start)
			sumV += d.VertexCount()
			sumB += d.BreakpointCount()
			sumC += d.CrossingCount()
		}
		v := float64(sumV) / float64(trials)
		fmt.Printf("%-4d %-14.1f %-12.1f %-10.1f %v\n",
			n, v, float64(sumB)/float64(trials), float64(sumC)/float64(trials),
			(el / time.Duration(trials)).Round(time.Microsecond))
		xs = append(xs, float64(n))
		ys = append(ys, v+1)
	}
	fmt.Printf("growth exponent (log-log fit): %.2f (paper: ≤ 3)\n", stats.LogLogSlope(xs, ys))
}

// E3 — Theorem 2.7.
func expLBCubic() {
	ns := []int{8, 12, 16, 20}
	if *quick {
		ns = []int{8, 12}
	}
	var xs, ys []float64
	fmt.Println("n    m   vertices  guaranteed(4m³)  ratio")
	for _, n := range ns {
		disks := workload.LowerBoundCubic(n)
		d := core.BuildDiagram(disks, core.DiagramOptions{SkipSubdivision: true})
		want := workload.LowerBoundCubicExpected(n)
		got := d.CrossingCount()
		fmt.Printf("%-4d %-3d %-9d %-16d %.2f\n", n, n/4, got, want, float64(got)/float64(want))
		xs = append(xs, float64(n))
		ys = append(ys, float64(got))
	}
	fmt.Printf("growth exponent: %.2f (paper: 3)\n", stats.LogLogSlope(xs, ys))
}

// E4 — Theorem 2.8.
func expLBCubicEqual() {
	ns := []int{9, 12, 15, 18}
	if *quick {
		ns = []int{9, 12}
	}
	var xs, ys []float64
	fmt.Println("n    m   vertices  guaranteed(m³)  ratio")
	for _, n := range ns {
		disks := workload.LowerBoundCubicEqualRadii(n)
		d := core.BuildDiagram(disks, core.DiagramOptions{SkipSubdivision: true})
		want := workload.LowerBoundCubicEqualRadiiExpected(n)
		got := d.CrossingCount()
		fmt.Printf("%-4d %-3d %-9d %-15d %.2f\n", n, n/3, got, want, float64(got)/float64(want))
		xs = append(xs, float64(n))
		ys = append(ys, float64(got))
	}
	fmt.Printf("growth exponent: %.2f (paper: 3)\n", stats.LogLogSlope(xs, ys))
}

// E5a — Theorem 2.10 upper bound: disjoint disks with radius ratio λ.
func expDisjointLambda() {
	r := rng()
	n := 24
	if *quick {
		n = 16
	}
	fmt.Println("lambda  vertices(avg over 3)")
	for _, lambda := range []float64{1, 2, 4, 8} {
		sum := 0
		for t := 0; t < 3; t++ {
			disks := workload.DisjointDisks(r, n, lambda)
			d := core.BuildDiagram(disks, core.DiagramOptions{SkipSubdivision: true})
			sum += d.VertexCount()
		}
		fmt.Printf("%-7.0f %.1f\n", lambda, float64(sum)/3)
	}
	// n sweep at fixed λ = 2: exponent should be ≈ 2 or below.
	var xs, ys []float64
	fmt.Println("n (λ=2)  vertices(avg)")
	ns := []int{8, 16, 24, 32}
	if *quick {
		ns = []int{8, 16}
	}
	for _, n := range ns {
		sum := 0
		for t := 0; t < 3; t++ {
			disks := workload.DisjointDisks(r, n, 2)
			d := core.BuildDiagram(disks, core.DiagramOptions{SkipSubdivision: true})
			sum += d.VertexCount()
		}
		v := float64(sum) / 3
		fmt.Printf("%-8d %.1f\n", n, v)
		xs = append(xs, float64(n))
		ys = append(ys, v+1)
	}
	fmt.Printf("growth exponent: %.2f (paper: ≤ 2 for constant λ)\n", stats.LogLogSlope(xs, ys))
}

// E5b — Theorem 2.10 lower bound.
func expLBQuadratic() {
	ns := []int{8, 16, 24, 32, 48}
	if *quick {
		ns = []int{8, 16, 24}
	}
	var xs, ys []float64
	fmt.Println("n    vertices  guaranteed((n−2)(n−1))  ratio")
	for _, n := range ns {
		disks := workload.LowerBoundQuadratic(n)
		d := core.BuildDiagram(disks, core.DiagramOptions{SkipSubdivision: true})
		want := workload.LowerBoundQuadraticExpected(n)
		got := d.CrossingCount()
		fmt.Printf("%-4d %-9d %-23d %.2f\n", n, got, want, float64(got)/float64(want))
		xs = append(xs, float64(n))
		ys = append(ys, float64(got))
	}
	fmt.Printf("growth exponent: %.2f (paper: 2)\n", stats.LogLogSlope(xs, ys))
}

// E6 — Theorem 2.14.
func expComplexityDiscrete() {
	r := rng()
	type cfg struct{ n, k int }
	cfgs := []cfg{{4, 2}, {6, 2}, {8, 2}, {6, 3}, {8, 3}}
	if *quick {
		cfgs = []cfg{{4, 2}, {6, 2}}
	}
	fmt.Println("n   k   vertices(avg over 3)  kn³")
	for _, c := range cfgs {
		sum := 0
		for t := 0; t < 3; t++ {
			pts := workload.Supports(workload.RandomDiscrete(r, c.n, c.k, 60, 6, 1))
			d := core.BuildDiscreteDiagram(pts, core.DiscreteDiagramOptions{SkipSubdivision: true})
			sum += d.VertexCount()
		}
		fmt.Printf("%-3d %-3d %-21.1f %d\n", c.n, c.k, float64(sum)/3, c.k*c.n*c.n*c.n)
	}
}

// E7 — Theorem 2.11: point-location queries on the diagram vs brute force.
func expPointLocation() {
	r := rng()
	n := 12
	disks := workload.RandomDisks(r, n, 100, 1, 5)
	start := time.Now()
	d := core.BuildDiagram(disks, core.DiagramOptions{})
	build := time.Since(start)
	qs := workload.QueryPoints(r, 2000, workload.DisksBBox(disks))
	start = time.Now()
	for _, q := range qs {
		d.Query(q)
	}
	tDiag := time.Since(start)
	start = time.Now()
	for _, q := range qs {
		core.NonzeroSet(disks, q)
	}
	tBrute := time.Since(start)
	fmt.Printf("n=%d  vertices=%d  faces=%d  slabs=%d  build=%v\n",
		n, d.VertexCount(), d.Sub.Faces(), d.Sub.Slabs(), build.Round(time.Millisecond))
	fmt.Printf("query: diagram %v/q   brute %v/q\n",
		(tDiag / time.Duration(len(qs))).Round(time.Nanosecond),
		(tBrute / time.Duration(len(qs))).Round(time.Nanosecond))
	fmt.Printf("persistent-set nodes: %d for %d faces (%.2f nodes/face)\n",
		d.Sub.MemoryNodes(), d.Sub.Faces(), float64(d.Sub.MemoryNodes())/float64(d.Sub.Faces()))
}

// E8 — Theorem 3.1.
func expNNQContinuous() {
	r := rng()
	ns := []int{1000, 10000, 100000}
	if *quick {
		ns = []int{1000, 10000}
	}
	fmt.Println("n       build      index/q    rtree/q    brute/q    avg|NN≠0|")
	for _, n := range ns {
		disks := workload.RandomDisks(r, n, math.Sqrt(float64(n))*10, 0.1, 1)
		start := time.Now()
		ix := nnq.NewContinuous(disks)
		build := time.Since(start)
		rt := rtree.Build(disks)
		qs := workload.QueryPoints(r, 2000, workload.DisksBBox(disks))
		var outSum int
		start = time.Now()
		for _, q := range qs {
			outSum += len(ix.Query(q))
		}
		tIx := time.Since(start)
		start = time.Now()
		for _, q := range qs {
			rt.NonzeroQuery(q)
		}
		tRt := time.Since(start)
		start = time.Now()
		for _, q := range qs {
			core.NonzeroSet(disks, q)
		}
		tBr := time.Since(start)
		per := func(d time.Duration) time.Duration { return (d / time.Duration(len(qs))).Round(time.Nanosecond) }
		fmt.Printf("%-7d %-10v %-10v %-10v %-10v %.2f\n",
			n, build.Round(time.Millisecond), per(tIx), per(tRt), per(tBr),
			float64(outSum)/float64(len(qs)))
	}
}

// E9 — Theorem 3.2.
func expNNQDiscrete() {
	r := rng()
	type cfg struct{ n, k int }
	cfgs := []cfg{{1000, 4}, {10000, 4}, {10000, 8}}
	if *quick {
		cfgs = []cfg{{1000, 4}}
	}
	fmt.Println("n      k   N       build      index/q    brute/q")
	for _, c := range cfgs {
		pts := workload.Supports(workload.RandomDiscrete(r, c.n, c.k, math.Sqrt(float64(c.n))*10, 1, 1))
		start := time.Now()
		ix := nnq.NewDiscrete(pts)
		build := time.Since(start)
		bb := geom.EmptyBBox()
		for _, p := range pts {
			bb = bb.Union(geom.BBoxOf(p.Locs))
		}
		qs := workload.QueryPoints(r, 1000, bb)
		start = time.Now()
		for _, q := range qs {
			ix.Query(q)
		}
		tIx := time.Since(start)
		start = time.Now()
		for _, q := range qs {
			core.NonzeroSetDiscrete(pts, q)
		}
		tBr := time.Since(start)
		per := func(d time.Duration) time.Duration { return (d / time.Duration(len(qs))).Round(time.Nanosecond) }
		fmt.Printf("%-6d %-3d %-7d %-10v %-10v %-10v\n",
			c.n, c.k, c.n*c.k, build.Round(time.Millisecond), per(tIx), per(tBr))
	}
}

// E10 — Lemma 4.1 and Theorem 4.2.
func expVPr() {
	r := rng()
	ns := []int{2, 3, 4, 5}
	if *quick {
		ns = []int{2, 3}
	}
	fmt.Println("n   k   N   faces    N⁴      build      vpr/q      sweep/q")
	for _, n := range ns {
		pts := workload.VPrLowerBound(r, n)
		box := geom.BBox{MinX: -2, MinY: -2, MaxX: 2, MaxY: 2}
		start := time.Now()
		v := quantify.NewVPr(pts, box)
		build := time.Since(start)
		qs := workload.QueryPoints(r, 500, box)
		start = time.Now()
		for _, q := range qs {
			v.Query(q)
		}
		tV := time.Since(start)
		start = time.Now()
		for _, q := range qs {
			quantify.ExactAll(pts, q)
		}
		tS := time.Since(start)
		N := 2 * n
		per := func(d time.Duration) time.Duration { return (d / time.Duration(len(qs))).Round(time.Nanosecond) }
		fmt.Printf("%-3d %-3d %-3d %-8d %-7d %-10v %-10v %-10v\n",
			n, 2, N, v.Faces(), N*N*N*N, build.Round(time.Millisecond), per(tV), per(tS))
	}
}

// E11 — Theorem 4.3.
func expMCError() {
	r := rng()
	n, k := 20, 4
	pts := workload.RandomDiscrete(r, n, k, 60, 6, 4)
	qs := workload.QueryPoints(r, 100, workload.DiscreteBBox(pts))
	fmt.Println("eps    s(thm)   maxErr(meas)  query")
	for _, eps := range []float64{0.2, 0.1, 0.05} {
		s := quantify.SampleCountDiscrete(n, k, eps, 0.05)
		mc := quantify.NewMonteCarloDiscrete(pts, s, r)
		maxErr := 0.0
		start := time.Now()
		for _, q := range qs {
			got := quantify.Scatter(n, mc.EstimatePositiveInto(q, nil))
			want := quantify.ExactAll(pts, q)
			maxErr = math.Max(maxErr, stats.MaxAbsDiff(got, want))
		}
		el := time.Since(start)
		fmt.Printf("%-6.2f %-8d %-13.4f %v/q\n",
			eps, s, maxErr, (el / time.Duration(len(qs))).Round(time.Microsecond))
	}
}

// E12 — Theorem 4.5.
func expMCContinuous() {
	r := rng()
	n := 8
	ps := make([]dist.Continuous, n)
	uds := make([]dist.UniformDisk, n)
	for i := range ps {
		uds[i] = dist.UniformDisk{D: geom.Dsk(r.Float64()*30, r.Float64()*30, 1+r.Float64()*2)}
		ps[i] = uds[i]
	}
	qs := make([]geom.Point, 30)
	for i := range qs {
		qs[i] = geom.Pt(r.Float64()*30, r.Float64()*30)
	}
	fmt.Println("eps    s       maxErr(vs integration)")
	for _, eps := range []float64{0.1, 0.05} {
		// Theorem 4.5's constant is conservative; use the single-query
		// Chernoff count scaled by ln n for the measurement.
		s := int(math.Ceil(math.Log(float64(2*n)*100) / (2 * eps * eps / 4)))
		mc := quantify.NewMonteCarloContinuous(ps, s, r)
		maxErr := 0.0
		for _, q := range qs {
			got := quantify.Scatter(n, mc.EstimatePositiveInto(q, nil))
			want := baseline.IntegrateAll(ps, q, 512)
			maxErr = math.Max(maxErr, stats.MaxAbsDiff(got, want))
		}
		fmt.Printf("%-6.2f %-7d %.4f\n", eps, s, maxErr)
	}
}

// E13 — Theorem 4.7.
func expSpiral() {
	r := rng()
	n, k := 50, 4
	fmt.Println("rho(max) rho(meas) eps    m     maxUnder  maxOver   query")
	for _, spread := range []float64{1, 2, 4, 8} {
		pts := workload.RandomDiscrete(r, n, k, 100, 4, spread)
		sp := quantify.NewSpiral(pts)
		qs := workload.QueryPoints(r, 100, workload.DiscreteBBox(pts))
		for _, eps := range []float64{0.1, 0.01} {
			maxUnder, maxOver := 0.0, 0.0
			start := time.Now()
			for _, q := range qs {
				got := quantify.Scatter(n, sp.EstimatePositiveInto(q, eps, nil))
				want := quantify.ExactAll(pts, q)
				for i := range want {
					maxUnder = math.Max(maxUnder, want[i]-got[i]) // must be ≤ ε
					maxOver = math.Max(maxOver, got[i]-want[i])   // must be ≤ 0
				}
			}
			el := time.Since(start)
			fmt.Printf("%-8.0f %-9.2f %-6.2f %-5d %-9.4f %-9.2g %v/q\n",
				spread, sp.Rho(), eps, sp.M(eps), maxUnder, maxOver,
				(el / time.Duration(len(qs))).Round(time.Microsecond))
		}
	}
}

// E14 — Section 4.3, Remark (i): ignoring locations with weight below ε/k
// distorts probabilities by more than 2ε and can invert the ranking. The
// instance follows the paper: p1's nearest location has weight 3ε, the
// next nMid closest locations belong to distinct points with tiny weight
// 2/nMid each, then p2's location with weight 5ε. Each point's remaining
// mass sits at one shared faraway spot so it cannot interfere (the tie
// semantics of Eq. 2 zero out coincident far locations).
func expSpiralAdversarial() {
	eps := 0.02
	nMid := 400
	far := geom.Pt(1e6, 0)
	var pts []*dist.Discrete
	mk := func(locs []geom.Point, w []float64) *dist.Discrete {
		d, err := dist.NewDiscrete(locs, w)
		if err != nil {
			panic(err)
		}
		return d
	}
	pts = append(pts, mk([]geom.Point{{X: 1, Y: 0}, far}, []float64{3 * eps, 1 - 3*eps}))
	pts = append(pts, mk([]geom.Point{{X: 0, Y: 30}, far}, []float64{5 * eps, 1 - 5*eps}))
	light := 2 / float64(nMid)
	for i := 0; i < nMid; i++ {
		ang := 2 * math.Pi * float64(i) / float64(nMid)
		pts = append(pts, mk(
			[]geom.Point{geom.Dir(ang).Scale(10), far},
			[]float64{light, 1 - light}))
	}
	q := geom.Pt(0, 0)
	exact := quantify.ExactAll(pts, q)
	sp := quantify.NewSpiral(pts)
	approx := quantify.Scatter(len(pts), sp.EstimatePositiveInto(q, eps, nil))

	// The flawed heuristic from Remark (i): drop locations with weight
	// below ε/k, then evaluate.
	var kept []quantify.Location
	for _, l := range quantify.Flatten(pts) {
		if l.W >= eps/2 {
			kept = append(kept, l)
		}
	}
	dropped := quantify.ExactSubset(kept, len(pts), q)
	fmt.Printf("point  exact    spiral   drop-light\n")
	fmt.Printf("p1     %.4f   %.4f   %.4f\n", exact[0], approx[0], dropped[0])
	fmt.Printf("p2     %.4f   %.4f   %.4f\n", exact[1], approx[1], dropped[1])
	fmt.Printf("exact ranking: p1 > p2 = %v; spiral preserves it: %v; drop-light preserves it: %v\n",
		exact[0] > exact[1], approx[0] > approx[1], dropped[0] > dropped[1])
	fmt.Printf("drop-light error on p2: %.4f (> 2ε = %.4f: %v)\n",
		math.Abs(dropped[1]-exact[1]), 2*eps, math.Abs(dropped[1]-exact[1]) > 2*eps)
}

// E15 — query-time comparison across all NN≠0 methods.
func expBaselines() {
	r := rng()
	n := 5000
	if *quick {
		n = 1000
	}
	disks := workload.RandomDisks(r, n, math.Sqrt(float64(n))*10, 0.1, 1)
	ix := nnq.NewContinuous(disks)
	rt := rtree.Build(disks)
	qs := workload.QueryPoints(r, 2000, workload.DisksBBox(disks))
	check := 0
	for _, q := range qs[:50] {
		a := ix.Query(q)
		b := rt.NonzeroQuery(q)
		c := baseline.NonzeroBrute(disks, q)
		if eq(a, c) && eq(b, c) {
			check++
		}
	}
	methods := []struct {
		name string
		f    func(geom.Point)
	}{
		{"index(Thm3.1)", func(q geom.Point) { ix.Query(q) }},
		{"rtree(CKP04)", func(q geom.Point) { rt.NonzeroQuery(q) }},
		{"brute(Lemma2.1)", func(q geom.Point) { baseline.NonzeroBrute(disks, q) }},
	}
	fmt.Printf("n=%d, cross-check %d/50 agree\n", n, check)
	var rows []string
	for _, m := range methods {
		start := time.Now()
		for _, q := range qs {
			m.f(q)
		}
		el := time.Since(start)
		rows = append(rows, fmt.Sprintf("%-16s %v/q", m.name, (el/time.Duration(len(qs))).Round(time.Nanosecond)))
	}
	sort.Strings(rows)
	for _, row := range rows {
		fmt.Println(row)
	}
}

func eq(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// E16 — the unified pnn.Index facade: batch-query throughput scaling
// with worker count, with a worker-count-independence cross-check (the
// engine is read-only after New, so answers cannot depend on schedule).
func expFacadeBatch() {
	r := rng()
	n := 2000
	if *quick {
		n = 500
	}
	pts := make([]pnn.DiscretePoint, n)
	for i := range pts {
		cx, cy := r.Float64()*1000, r.Float64()*1000
		k := 2 + r.Intn(4)
		locs := make([]pnn.Point, k)
		for t := range locs {
			locs[t] = pnn.Pt(cx+r.Float64()*8-4, cy+r.Float64()*8-4)
		}
		pts[i] = pnn.DiscretePoint{Locations: locs}
	}
	set, err := pnn.NewDiscreteSet(pts)
	if err != nil {
		panic(err)
	}
	idx, err := pnn.New(set, pnn.WithQuantifier(pnn.SpiralSearch(0.05)))
	if err != nil {
		panic(err)
	}
	nq := 2000
	if *quick {
		nq = 500
	}
	// Each query asks for NN≠0 and the π vector.
	reqs := make([]pnn.Request, 0, 2*nq)
	for range nq {
		q := pnn.Pt(r.Float64()*1000, r.Float64()*1000)
		reqs = append(reqs, pnn.Request{Q: q, Op: pnn.OpNonzero}, pnn.Request{Q: q, Op: pnn.OpProbabilities})
	}
	ref, err := idx.QueryBatchOps(context.Background(), reqs, 1)
	if err != nil {
		panic(err)
	}
	fmt.Printf("n=%d queries=%d quantifier=spiral(0.05) gomaxprocs=%d\n",
		n, nq, runtime.GOMAXPROCS(0))
	fmt.Println("workers  total      per-query  identical-to-serial")
	for _, w := range []int{1, 2, 4, 8} {
		start := time.Now()
		got, err := idx.QueryBatchOps(context.Background(), reqs, w)
		if err != nil {
			panic(err)
		}
		el := time.Since(start)
		same := reflect.DeepEqual(got, ref)
		fmt.Printf("%-8d %-10v %-10v %v\n",
			w, el.Round(time.Millisecond),
			(el / time.Duration(nq)).Round(time.Microsecond), same)
	}
}

// E17 — §1.2: expected-distance NN ([AESZ12]) vs the most-probable NN.
// Under growing uncertainty the two rankings diverge on a growing fraction
// of queries — the argument ([YTX+10]) for quantification probabilities.
func expExpectedVsProb() {
	r := rng()
	n, k := 20, 4
	fmt.Println("cluster-radius  disagreement-rate (expected-NN != argmax π, 200 queries)")
	for _, radius := range []float64{1, 4, 8, 16} {
		pts := workload.RandomDiscrete(r, n, k, 60, radius, 6)
		qs := workload.QueryPoints(r, 200, workload.DiscreteBBox(pts))
		disagree := 0
		for _, q := range qs {
			expIdx, _ := quantify.ExpectedNNDiscrete(pts, q)
			pi := quantify.ExactAll(pts, q)
			argmax, best := -1, -1.0
			for i, p := range pi {
				if p > best {
					best = p
					argmax = i
				}
			}
			if expIdx != argmax {
				disagree++
			}
		}
		fmt.Printf("%-15.0f %.1f%%\n", radius, 100*float64(disagree)/float64(len(qs)))
	}
}

// E18 — §3 Remark (ii): the L∞ variant.
func expLInf() {
	r := rng()
	n := 10000
	if *quick {
		n = 1000
	}
	squares := make([]linf.Square, n)
	for i := range squares {
		squares[i] = linf.Square{
			C: geom.Pt(r.Float64()*1000, r.Float64()*1000),
			R: 0.1 + r.Float64(),
		}
	}
	start := time.Now()
	ix := linf.Build(squares)
	build := time.Since(start)
	var qs []geom.Point
	for i := 0; i < 2000; i++ {
		qs = append(qs, geom.Pt(r.Float64()*1000, r.Float64()*1000))
	}
	// Correctness against the oracle first.
	for _, q := range qs[:100] {
		if !eq(ix.Query(q), linf.NonzeroSet(squares, q)) {
			fmt.Println("MISMATCH against L∞ oracle")
			return
		}
	}
	start = time.Now()
	for _, q := range qs {
		ix.Query(q)
	}
	tIx := time.Since(start)
	start = time.Now()
	for _, q := range qs {
		linf.NonzeroSet(squares, q)
	}
	tBr := time.Since(start)
	fmt.Printf("n=%d  build=%v  index=%v/q  brute=%v/q  (oracle agreement 100/100)\n",
		n, build.Round(time.Millisecond),
		(tIx / time.Duration(len(qs))).Round(time.Nanosecond),
		(tBr / time.Duration(len(qs))).Round(time.Nanosecond))
}

// E19 — ablation: the [DSST89] persistence of Theorem 2.11. Compares the
// measured persistent-node count against what explicit per-face sets
// would store (Σ per-face set size).
func expAblationPersist() {
	r := rng()
	// Two regimes: sparse disks (small NN≠0 sets — persistence overhead
	// comparable to explicit storage) and dense overlapping disks (large
	// sets — the regime Theorem 2.11's O(μ) claim targets).
	for _, cfg := range []struct {
		name       string
		rmin, rmax float64
	}{
		{"sparse", 1, 5},
		{"dense", 10, 25},
	} {
		for _, n := range []int{8, 12, 16} {
			disks := workload.RandomDisks(r, n, 100, cfg.rmin, cfg.rmax)
			d := core.BuildDiagram(disks, core.DiagramOptions{})
			faces := d.Sub.Faces()
			nodes := d.Sub.MemoryNodes()
			explicit := d.Sub.ExplicitSetSize()
			fmt.Printf("%-7s n=%-3d faces=%-8d persistent-nodes=%-8d explicit-elements=%-10d saving=%.1fx\n",
				cfg.name, n, faces, nodes, explicit, float64(explicit)/float64(nodes))
		}
	}
}

// E20 — ablation: the numeric envelope's pairwise-crossing grid. Vertex
// counts on the Ω(n²) construction (whose exact count is known) must be
// stable across grid resolutions; too-coarse grids lose vertices.
func expAblationEnvelope() {
	n := 16
	disks := workload.LowerBoundQuadratic(n)
	want := workload.LowerBoundQuadraticExpected(n)
	fmt.Printf("grid  crossings (exact %d)\n", want)
	for _, grid := range []int{4, 8, 16, 32, 64} {
		d := core.BuildDiagram(disks, core.DiagramOptions{
			SkipSubdivision: true,
			CrossGrid:       grid,
			Gamma:           core.GammaOptions{Env: envelope.Options{GridPerPair: grid}},
		})
		fmt.Printf("%-5d %d\n", grid, d.CrossingCount())
	}
}

// benchRecord is the machine-readable BENCH_<name>.json schema: one
// measurement per file so downstream tooling can diff ns_op and allocs
// across commits without parsing the text tables.
type benchRecord struct {
	Name string `json:"name"`
	Desc string `json:"desc,omitempty"`
	// Params records the knobs the measurement depends on.
	Params map[string]any `json:"params"`
	// NsOp is nanoseconds per operation; for whole-experiment records
	// Ops is 1 and NsOp is the total wall time.
	NsOp int64 `json:"ns_op"`
	Ops  int64 `json:"ops"`
	// Allocs and Bytes are heap allocations per operation (for
	// whole-experiment records: for the whole run).
	Allocs     int64  `json:"allocs"`
	Bytes      int64  `json:"bytes"`
	Go         string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

func writeBenchRecord(rec benchRecord) {
	rec.Go = runtime.Version()
	rec.GOMAXPROCS = runtime.GOMAXPROCS(0)
	body, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "pnnbench: encode %s: %v\n", rec.Name, err)
		return
	}
	path := filepath.Join(*jsonDir, "BENCH_"+rec.Name+".json")
	if err := os.WriteFile(path, append(body, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "pnnbench: write %s: %v\n", path, err)
	}
}

// E22 — per-op micro-benchmarks of the hot paths, measured with
// testing.Benchmark so ns/op and allocs/op are statistically settled
// rather than single-shot. These are the numbers to watch across PRs.
func expMicrobench() {
	r := rng()
	nd := 2000
	if *quick {
		nd = 500
	}
	disks := workload.RandomDisks(r, nd, math.Sqrt(float64(nd))*10, 0.1, 1)
	dix := nnq.NewContinuous(disks)
	dqs := workload.QueryPoints(r, 256, workload.DisksBBox(disks))

	np, kp := 50, 4
	dpts := workload.RandomDiscrete(r, np, kp, 100, 4, 2)
	sp := quantify.NewSpiral(dpts)
	mc := quantify.NewMonteCarloDiscrete(dpts, 200, r)
	pqs := workload.QueryPoints(r, 256, workload.DiscreteBBox(dpts))

	fset, err := pnn.NewDiscreteSet(facadePoints(dpts))
	if err != nil {
		panic(err)
	}
	fidx, err := pnn.New(fset)
	if err != nil {
		panic(err)
	}
	batch := make([]pnn.Request, 64)
	ops := []pnn.Op{pnn.OpNonzero, pnn.OpProbabilities, pnn.OpTopK, pnn.OpThreshold, pnn.OpExpectedNN}
	for i := range batch {
		q := pqs[i%len(pqs)]
		batch[i] = pnn.Request{Q: pnn.Pt(q.X, q.Y), Op: ops[i%len(ops)], K: 3, Tau: 0.2}
	}

	// The sparse ranked-query surface (PR 4): facade TopK/Threshold/
	// PositiveProbabilities answer through the engines' sparse reports;
	// the dense rows rank the full π vector the pre-sparse path built.
	// These are the rows the CI bench gate watches for alloc regressions.
	ns := 5000
	if *quick {
		ns = 1000
	}
	spts := make([]pnn.DiscretePoint, ns)
	{
		cluster := math.Sqrt(float64(ns)) * 10
		for i := range spts {
			cx, cy := r.Float64()*cluster, r.Float64()*cluster
			locs := []pnn.Point{
				pnn.Pt(cx+r.Float64()*4-2, cy+r.Float64()*4-2),
				pnn.Pt(cx+r.Float64()*4-2, cy+r.Float64()*4-2),
			}
			spts[i] = pnn.DiscretePoint{Locations: locs}
		}
	}
	sset, err := pnn.NewDiscreteSet(spts)
	if err != nil {
		panic(err)
	}
	sidx, err := pnn.New(sset, pnn.WithQuantifier(pnn.SpiralSearch(0.05)))
	if err != nil {
		panic(err)
	}
	sqs := make([]pnn.Point, 256)
	{
		cluster := math.Sqrt(float64(ns)) * 10
		for i := range sqs {
			sqs[i] = pnn.Pt(r.Float64()*cluster, r.Float64()*cluster)
		}
	}
	sq := func(i int) pnn.Point { return sqs[i%len(sqs)] }

	dynN := 2000
	if *quick {
		dynN = 500
	}

	// The exact engine at the benchmark dataset's shape (10k points,
	// k = 4, uniform weights, radius 3 in a 100×100 extent) in both
	// modes: the Lemma 2.1 window kernel's cost depends on the window,
	// which only shows at this density. Its own generator keeps r's
	// stream, and with it every other row's data, unchanged.
	xr := rng()
	xpts := workload.RandomDiscrete(xr, 10000, 4, 100, 3, 1)
	xset, err := pnn.NewDiscreteSet(facadePoints(xpts))
	if err != nil {
		panic(err)
	}
	xidx, err := pnn.New(xset)
	if err != nil {
		panic(err)
	}
	xqs := workload.QueryPoints(xr, 256, workload.DiscreteBBox(xpts))

	// The serving path over the same set: one GET through the server's
	// handler per op, result cache off, so every request runs the
	// engine and encodes its body. A probabilities body carries all
	// 10,000 entries; topk, which writes a three-entry ranking, is the
	// control. The warm-up GET builds the engine before any timer.
	xreg := server.NewRegistry()
	if err := xreg.Add("bench", xset); err != nil {
		panic(err)
	}
	xsrv := server.New(xreg, server.Config{CacheSize: -1})
	defer xsrv.Close()
	serve := func(op string) func(b *testing.B) {
		h := xsrv.Handler()
		paths := make([]string, len(xqs))
		for i, q := range xqs {
			paths[i] = fmt.Sprintf("/v1/%s?dataset=bench&x=%g&y=%g", op, q.X, q.Y)
		}
		get := func(path string) error {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
			if rec.Code != http.StatusOK {
				return fmt.Errorf("GET %s: status %d: %s", path, rec.Code, rec.Body)
			}
			return nil
		}
		if err := get(paths[0]); err != nil {
			panic(err)
		}
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := get(paths[i%len(paths)]); err != nil {
					b.Fatal(err)
				}
			}
		}
	}

	benches := []struct {
		name   string
		params map[string]any
		fn     func(b *testing.B)
	}{
		{"topk-sparse", map[string]any{"n": ns, "k": 5, "quant": "spiral(0.05)"}, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sidx.TopK(sq(i), 5); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"topk-dense", map[string]any{"n": ns, "k": 5, "quant": "spiral(0.05)"}, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pi, err := sidx.Probabilities(sq(i))
				if err != nil {
					b.Fatal(err)
				}
				quantify.TopK(pi, 5)
			}
		}},
		{"threshold-sparse", map[string]any{"n": ns, "tau": 0.2, "quant": "spiral(0.05)"}, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sidx.Threshold(sq(i), 0.2); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"positive-sparse", map[string]any{"n": ns, "quant": "spiral(0.05)"}, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sidx.PositiveProbabilities(sq(i), 0); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"nonzero-into", map[string]any{"n": ns}, func(b *testing.B) {
			var buf []int
			for i := 0; i < b.N; i++ {
				var err error
				if buf, err = sidx.NonzeroInto(sq(i), buf); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"nonzero-index", map[string]any{"n": nd}, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				dix.Query(dqs[i%len(dqs)])
			}
		}},
		{"nonzero-brute", map[string]any{"n": nd}, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.NonzeroSet(disks, dqs[i%len(dqs)])
			}
		}},
		{"exact-sweep", map[string]any{"n": np, "k": kp}, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				quantify.ExactAll(dpts, pqs[i%len(pqs)])
			}
		}},
		{"exact-topk", map[string]any{"n": xset.Len(), "k": 4, "topk": 3}, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				q := xqs[i%len(xqs)]
				if _, err := xidx.TopK(pnn.Pt(q.X, q.Y), 3); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"serve-probabilities", map[string]any{"n": xset.Len(), "k": 4, "cache": "off"}, serve("probabilities")},
		{"serve-topk", map[string]any{"n": xset.Len(), "k": 4, "topk": 3, "cache": "off"}, serve("topk")},
		{"spiral-0.05", map[string]any{"n": np, "k": kp, "eps": 0.05}, func(b *testing.B) {
			var buf []quantify.IndexProb
			for i := 0; i < b.N; i++ {
				buf = sp.EstimatePositiveInto(pqs[i%len(pqs)], 0.05, buf)
			}
		}},
		{"mc-200rounds", map[string]any{"n": np, "k": kp, "rounds": 200}, func(b *testing.B) {
			var buf []quantify.IndexProb
			for i := 0; i < b.N; i++ {
				buf = mc.EstimatePositiveInto(pqs[i%len(pqs)], buf)
			}
		}},
		{"facade-batchops-64", map[string]any{"n": np, "k": kp, "batch": len(batch)}, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := fidx.QueryBatchOps(context.Background(), batch, 0); err != nil {
					b.Fatal(err)
				}
			}
		}},
		// The dynamization write path (pnn.DynamicIndex): insert-heavy,
		// delete-heavy churn, and a 90/10 read-write mix. These are the
		// rows the CI bench gate watches for write-path regressions.
		{"dyn-insert", map[string]any{"start": dynN}, func(b *testing.B) {
			dyn := newDynBench(b, dynN)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dyn.insert()
			}
		}},
		{"dyn-churn", map[string]any{"n": dynN}, func(b *testing.B) {
			dyn := newDynBench(b, dynN)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dyn.deleteOldest()
				dyn.insert()
			}
		}},
		// The observability hot path (PR 7): one request's worth of metric
		// work — endpoint counter increment, label lookup, histogram
		// observe. The CI bench gate holds this at zero allocs/op so
		// instrumenting the serving path stays free.
		{"obs-observe", map[string]any{"buckets": len(obs.DurationBuckets)}, func(b *testing.B) {
			reg := obs.NewRegistry()
			requests := reg.NewCounterVec("bench_requests_total", "endpoint")
			latency := reg.NewHistogramVec("bench_latency_seconds", "endpoint", obs.DurationBuckets)
			requests.Inc("nonzero") // pre-mint so the loop measures steady state
			h := latency.With("nonzero")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				requests.Inc("nonzero")
				latency.With("nonzero").ObserveDuration(time.Duration(i%1000) * time.Microsecond)
				h.Observe(float64(i%1000) * 1e-6)
			}
		}},
		// The tracing hot path (PR 10): StartSpan/End on a request whose
		// trace is NOT being recorded — the overwhelmingly common case at
		// production sample rates. The CI bench gate holds this at zero
		// allocs/op so span instrumentation stays free when not sampled.
		{"obs-span", map[string]any{"sampled": false}, func(b *testing.B) {
			tr := obs.NewTracerSeeded(0, 0, obs.DefaultTraceBuffer, 1)
			ctx, root := obs.StartTrace(context.Background(), tr, "bench", "")
			defer root.End()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sctx, span := obs.StartSpan(ctx, "work")
				span.End()
				_ = sctx
			}
		}},
		{"dyn-mixed-90-10", map[string]any{"n": dynN, "reads": 9}, func(b *testing.B) {
			dyn := newDynBench(b, dynN)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%10 == 9 {
					dyn.deleteOldest()
					dyn.insert()
				} else if _, err := dyn.d.Nonzero(dyn.q(i)); err != nil {
					b.Fatal(err)
				}
			}
		}},
	}
	fmt.Println("name                    ns/op        allocs/op  B/op")
	for _, bm := range benches {
		res := testing.Benchmark(bm.fn)
		fmt.Printf("%-23s %-12d %-10d %d\n",
			bm.name, res.NsPerOp(), res.AllocsPerOp(), res.AllocedBytesPerOp())
		if *jsonDir != "" {
			params := map[string]any{"quick": *quick, "seed": *seed}
			for k, v := range bm.params {
				params[k] = v
			}
			writeBenchRecord(benchRecord{
				Name:   "micro-" + bm.name,
				Params: params,
				NsOp:   res.NsPerOp(),
				Ops:    int64(res.N),
				Allocs: res.AllocsPerOp(),
				Bytes:  res.AllocedBytesPerOp(),
			})
		}
	}

	// The delta-apply write path (PR 9): one point folded into a standing
	// dynamic index of writeN points, vs. the pre-delta serving behaviour
	// of rebuilding a static index over the whole dataset for any write.
	// The gated row is the delta cost (ns/op, allocs/op); the rebuild
	// cost and the speedup ratio ride along in params so BENCH readers
	// see both sides of the trade without a second gated row.
	writeN := 100_000
	if *quick {
		writeN = 20_000
	}
	wspan := math.Sqrt(float64(writeN)) * 10
	wr := rand.New(rand.NewSource(42))
	wpoint := func() pnn.DiscretePoint {
		cx, cy := wr.Float64()*wspan, wr.Float64()*wspan
		return pnn.DiscretePoint{Locations: []pnn.Point{
			pnn.Pt(cx, cy), pnn.Pt(cx+wr.Float64()*2-1, cy+wr.Float64()*2-1),
		}}
	}
	wpts := make([]pnn.DiscretePoint, writeN)
	for i := range wpts {
		wpts[i] = wpoint()
	}
	wset, err := pnn.NewDiscreteSet(wpts)
	if err != nil {
		panic(err)
	}
	rebuild := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := pnn.New(wset); err != nil {
				b.Fatal(err)
			}
		}
	})
	wdyn, err := pnn.NewDynamic()
	if err != nil {
		panic(err)
	}
	for _, p := range wpts {
		if _, err := wdyn.InsertDiscrete(p); err != nil {
			panic(err)
		}
	}
	delta := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := wdyn.InsertDiscrete(wpoint()); err != nil {
				b.Fatal(err)
			}
		}
	})
	speedup := float64(rebuild.NsPerOp()) / float64(delta.NsPerOp())
	fmt.Printf("%-23s %-12d %-10d %d   (rebuild %d ns/op, %.0fx)\n",
		"write-apply", delta.NsPerOp(), delta.AllocsPerOp(), delta.AllocedBytesPerOp(),
		rebuild.NsPerOp(), speedup)
	if *jsonDir != "" {
		writeBenchRecord(benchRecord{
			Name: "micro-write-apply",
			Params: map[string]any{
				"quick": *quick, "seed": *seed, "n": writeN,
				"rebuild_ns_op": rebuild.NsPerOp(), "speedup": speedup,
			},
			NsOp:   delta.NsPerOp(),
			Ops:    int64(delta.N),
			Allocs: delta.AllocsPerOp(),
			Bytes:  delta.AllocedBytesPerOp(),
		})
	}

	// A write's real cost on a quantification read path: one insert plus
	// the TopK after it, which pays the dynamic view rebuild the insert
	// forced. A fresh index of writeN points (the one above has grown by
	// every write-apply op) grows by one point per op. The static side
	// is a full pnn.New over writeN points plus the same TopK.
	qdyn, err := pnn.NewDynamic()
	if err != nil {
		panic(err)
	}
	for _, p := range wpts {
		if _, err := qdyn.InsertDiscrete(p); err != nil {
			panic(err)
		}
	}
	wq := func(i int) pnn.Point {
		return pnn.Pt(float64(i%16)*wspan/16, float64(i/16%16)*wspan/16)
	}
	static := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			idx, err := pnn.New(wset)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := idx.TopK(wq(i), 3); err != nil {
				b.Fatal(err)
			}
		}
	})
	wtq := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := qdyn.InsertDiscrete(wpoint()); err != nil {
				b.Fatal(err)
			}
			if _, err := qdyn.TopK(wq(i), 3); err != nil {
				b.Fatal(err)
			}
		}
	})
	ratio := float64(static.NsPerOp()) / float64(wtq.NsPerOp())
	fmt.Printf("%-23s %-12d %-10d %d   (static New+TopK %d ns/op, %.0fx)\n",
		"write-then-quantify", wtq.NsPerOp(), wtq.AllocsPerOp(), wtq.AllocedBytesPerOp(),
		static.NsPerOp(), ratio)
	if *jsonDir != "" {
		writeBenchRecord(benchRecord{
			Name: "micro-write-then-quantify",
			Params: map[string]any{
				"quick": *quick, "seed": *seed, "n": writeN, "topk": 3,
				"static_ns_op": static.NsPerOp(), "speedup": ratio,
			},
			NsOp:   wtq.NsPerOp(),
			Ops:    int64(wtq.N),
			Allocs: wtq.AllocsPerOp(),
			Bytes:  wtq.AllocedBytesPerOp(),
		})
	}
}

// facadePoints converts generated discrete points to the facade's
// point type (weights copied).
func facadePoints(pts []*dist.Discrete) []pnn.DiscretePoint {
	out := make([]pnn.DiscretePoint, len(pts))
	for i, p := range pts {
		dp := pnn.DiscretePoint{Weights: append([]float64(nil), p.W...)}
		for _, l := range p.Locs {
			dp.Locations = append(dp.Locations, pnn.Pt(l.X, l.Y))
		}
		out[i] = dp
	}
	return out
}

// E21 — ablation: polyline flattening density vs diagram-query agreement
// with the brute oracle: the diagram's curved arcs are flattened into
// polylines, so denser flattening trades faces for agreement.
func expAblationFlatten() {
	r := rng()
	disks := workload.RandomDisks(r, 10, 100, 1, 5)
	qs := workload.QueryPoints(r, 2000, workload.DisksBBox(disks))
	fmt.Println("perArc  faces     agree")
	for _, perArc := range []int{4, 8, 16, 32} {
		d := core.BuildDiagram(disks, core.DiagramOptions{FlattenPerArc: perArc})
		agree := 0
		for _, q := range qs {
			if eq(d.Query(q), core.NonzeroSet(disks, q)) {
				agree++
			}
		}
		fmt.Printf("%-7d %-9d %.2f%%\n", perArc, d.Sub.Faces(),
			100*float64(agree)/float64(len(qs)))
	}
}

// dynBench drives one pnn.DynamicIndex for the write-path micro rows:
// a population of two-location discrete points under insert, delete,
// and mixed read-write churn.
type dynBench struct {
	d    *pnn.DynamicIndex
	ids  []pnn.PointID
	r    *rand.Rand
	span float64
}

func newDynBench(b *testing.B, n int) *dynBench {
	d, err := pnn.NewDynamic()
	if err != nil {
		b.Fatal(err)
	}
	db := &dynBench{d: d, r: rand.New(rand.NewSource(42)), span: math.Sqrt(float64(n)) * 10}
	for i := 0; i < n; i++ {
		db.insert()
	}
	return db
}

func (db *dynBench) insert() {
	cx, cy := db.r.Float64()*db.span, db.r.Float64()*db.span
	id, err := db.d.InsertDiscrete(pnn.DiscretePoint{Locations: []pnn.Point{
		pnn.Pt(cx, cy), pnn.Pt(cx+db.r.Float64()*2-1, cy+db.r.Float64()*2-1),
	}})
	if err != nil {
		panic(err)
	}
	db.ids = append(db.ids, id)
}

func (db *dynBench) deleteOldest() {
	if len(db.ids) == 0 {
		return
	}
	if err := db.d.Delete(db.ids[0]); err != nil {
		panic(err)
	}
	db.ids = db.ids[1:]
}

func (db *dynBench) q(i int) pnn.Point {
	return pnn.Pt(db.r.Float64()*db.span, db.r.Float64()*db.span)
}
