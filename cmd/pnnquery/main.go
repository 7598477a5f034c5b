// Command pnnquery loads an uncertain-point dataset and answers nonzero-NN
// and quantification-probability queries through the pnn.Index facade.
//
// Usage:
//
//	pnngen -kind discrete -n 20 > fleet.json
//	pnnquery -data fleet.json -q 42,17                 # NN≠0 + exact π
//	pnnquery -data fleet.json -q 42,17 -method spiral -eps 0.05
//	pnnquery -data sensors.json -q 10,20 -method mc -eps 0.1
//	pnnquery -data fleet.json -q "42,17;10,20;55,5" -workers 8
//
// Multiple queries separated by ';' are answered as one concurrent batch
// (deterministic output order, any worker count).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"pnn"
	"pnn/internal/datafile"
)

var (
	dataPath = flag.String("data", "", "dataset JSON (from pnngen)")
	queryStr = flag.String("q", "", "query points as x,y[;x,y...]")
	method   = flag.String("method", "exact", "exact | spiral | mc | integrate")
	eps      = flag.Float64("eps", 0.05, "additive error for spiral/mc")
	delta    = flag.Float64("delta", 0.05, "failure probability for mc")
	seed     = flag.Int64("seed", 1, "random seed for mc")
	workers  = flag.Int("workers", 0, "batch workers (0 = GOMAXPROCS)")
	backend  = flag.String("backend", "index", "nonzero backend: index | direct | diagram")
)

func main() {
	flag.Parse()
	if *dataPath == "" || *queryStr == "" {
		fmt.Fprintln(os.Stderr, "pnnquery: -data and -q are required")
		os.Exit(2)
	}
	qs, err := parsePoints(*queryStr)
	if err != nil {
		fatal(err)
	}
	f, err := os.Open(*dataPath)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	df, err := datafile.Read(f)
	if err != nil {
		fatal(err)
	}
	set, err := df.Set()
	if err != nil {
		fatal(err)
	}

	opts := []pnn.Option{pnn.WithSeed(*seed)}
	switch *backend {
	case "index":
		opts = append(opts, pnn.WithNonzeroBackend(pnn.BackendIndex))
	case "direct":
		opts = append(opts, pnn.WithNonzeroBackend(pnn.BackendDirect))
	case "diagram":
		opts = append(opts, pnn.WithNonzeroBackend(pnn.BackendDiagram))
	default:
		fatal(fmt.Errorf("unknown backend %q", *backend))
	}
	switch *method {
	case "exact", "integrate":
		// Exact() integrates Eq. (1) numerically for continuous inputs.
		opts = append(opts, pnn.WithQuantifier(pnn.Exact()))
	case "spiral":
		opts = append(opts, pnn.WithQuantifier(pnn.SpiralSearch(*eps)))
	case "mc":
		opts = append(opts, pnn.WithQuantifier(pnn.MonteCarlo(*eps, *delta)))
	default:
		fatal(fmt.Errorf("unknown method %q", *method))
	}

	idx, err := pnn.New(set, opts...)
	if err != nil {
		fatal(err)
	}
	if idx.Eps() > 0 {
		fmt.Printf("quantifier: %s (ε=%g)\n", *method, idx.Eps())
	}
	if *method == "spiral" && df.Kind == datafile.KindDisks {
		fmt.Println("note: continuous spiral discretizes each disk first (Lemma 4.4);" +
			" the sampling term adds to ε")
	}

	// Each query point asks for NN≠0 and the π vector.
	reqs := make([]pnn.Request, 0, 2*len(qs))
	for _, q := range qs {
		reqs = append(reqs, pnn.Request{Q: q, Op: pnn.OpNonzero}, pnn.Request{Q: q, Op: pnn.OpProbabilities})
	}
	res, err := idx.QueryBatchOps(context.Background(), reqs, *workers)
	if err != nil {
		fatal(err)
	}
	for i, q := range qs {
		nz, pr := res[2*i], res[2*i+1]
		for _, r := range []pnn.OpResult{nz, pr} {
			if r.Err != nil {
				fatal(r.Err)
			}
		}
		fmt.Printf("NN≠0(%g, %g) = %v  (%d of %d points)\n",
			q.X, q.Y, nz.Nonzero, len(nz.Nonzero), idx.Len())
		printProbs(pr.Probabilities, 1e-9)
	}
}

// parsePoints parses "x,y[;x,y...]" strictly: every ';'-separated
// segment must be a well-formed point, and empty segments (stray or
// doubled separators) are errors rather than being silently skipped —
// a malformed batch must fail loudly, not shrink.
func parsePoints(s string) ([]pnn.Point, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("no query points in %q", s)
	}
	parts := strings.Split(s, ";")
	qs := make([]pnn.Point, len(parts))
	for i, part := range parts {
		if strings.TrimSpace(part) == "" {
			return nil, fmt.Errorf("query %d of %d is empty (stray ';' in %q)", i+1, len(parts), s)
		}
		q, err := parsePoint(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("query %d of %d: %w", i+1, len(parts), err)
		}
		qs[i] = q
	}
	return qs, nil
}

func parsePoint(s string) (pnn.Point, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 2 {
		return pnn.Point{}, fmt.Errorf("%q must be x,y", s)
	}
	x, err := strconv.ParseFloat(strings.TrimSpace(parts[0]), 64)
	if err != nil {
		return pnn.Point{}, fmt.Errorf("%q: bad x coordinate %q", s, strings.TrimSpace(parts[0]))
	}
	y, err := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
	if err != nil {
		return pnn.Point{}, fmt.Errorf("%q: bad y coordinate %q", s, strings.TrimSpace(parts[1]))
	}
	return pnn.Pt(x, y), nil
}

func printProbs(pi []float64, eps float64) {
	for i, p := range pi {
		if p > eps {
			fmt.Printf("  π_%d = %.6f\n", i, p)
		}
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "pnnquery: %v\n", err)
	os.Exit(1)
}
