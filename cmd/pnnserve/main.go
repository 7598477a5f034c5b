// Command pnnserve hosts named uncertain-point datasets behind the
// pnnserve HTTP/JSON API: the full pnn.Index query surface plus
// /healthz and /metrics, with natural request batching and an LRU
// result cache (see pnn/server).
//
// Usage:
//
//	pnngen -kind discrete -n 50 > fleet.json
//	pnnserve -data fleet=fleet.json -gen 'demo=disks:n=100,seed=7'
//
//	curl 'localhost:8080/v1/nonzero?dataset=fleet&x=42&y=17'
//	curl 'localhost:8080/v1/topk?dataset=demo&x=10&y=20&k=3&method=spiral&eps=0.05'
//	curl localhost:8080/metrics
//
// -data name=path loads a pnngen JSON file; -gen name=kind:k1=v1,k2=v2
// generates a workload in process (kinds as in pnngen; params n, k,
// seed, extent, rmin, rmax, lambda, spread, radius). Both flags repeat.
// SIGINT/SIGTERM drain in-flight requests before exit.
//
// -store DIR makes the datasets durable and mutable: the directory
// holds a write-ahead log plus snapshots (see pnn/store), every
// dataset in it is served on startup, and the mutation endpoints
// (PUT/DELETE /v1/datasets/{name}, POST .../points,
// DELETE .../points/{id}, POST .../snapshot) write through it.
// Mutations require -admin-token (they are disabled when it is empty):
//
//	pnnserve -store /var/lib/pnn -admin-token $TOKEN
//	curl -X PUT  -H "Authorization: Bearer $TOKEN" localhost:8080/v1/datasets/fleet -d '{"kind":"discrete"}'
//	curl -X POST -H "Authorization: Bearer $TOKEN" localhost:8080/v1/datasets/fleet/points -d '{"discrete":[{"x":[1],"y":[2]}]}'
//
// With -store, -data/-gen datasets are imported into the store on
// first start (skipped when a dataset of that name already exists).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"pnn/internal/datafile"
	"pnn/internal/obs"
	"pnn/server"
	"pnn/store"
)

var (
	addr        = flag.String("addr", ":8080", "listen address")
	cacheSize   = flag.Int("cache", 4096, "LRU result-cache entries (0 disables)")
	timeout     = flag.Duration("timeout", 30*time.Second, "per-request timeout (0 disables)")
	storeDir    = flag.String("store", "", "durable store directory (WAL + snapshots); empty = read-only datasets")
	adminToken  = flag.String("admin-token", "", "bearer token for the mutation endpoints (empty disables them)")
	logLevel    = flag.String("log-level", "info", "structured log level: debug logs every request, info only slow ones (off disables)")
	slowQuery   = flag.Duration("slow-query", time.Second, "log requests at least this slow at Warn and keep their traces; while armed every request records its spans (0 disables both; -trace-buffer 0 stops all recording)")
	pprofFlag   = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ (off by default: it leaks stacks and heap contents)")
	traceSample = flag.Float64("trace-sample", 0, "fraction of requests whose spans are kept at /debug/traces (0 keeps only slow traces, 1 keeps all)")
	traceBuffer = flag.Int("trace-buffer", 256, "traces retained in the /debug/traces ring (0 disables tracing)")
)

func main() {
	// -data/-gen specs are collected during flag parsing and resolved
	// afterwards, once we know whether a store is configured (imports
	// go through it so they become durable).
	type spec struct {
		name string
		df   *datafile.File
	}
	var specs []spec
	flag.Func("data", "dataset as name=path (repeatable)", func(v string) error {
		name, path, ok := strings.Cut(v, "=")
		if !ok {
			return fmt.Errorf("want name=path, got %q", v)
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		df, err := datafile.Read(f)
		if err != nil {
			return err
		}
		specs = append(specs, spec{name, df})
		return nil
	})
	flag.Func("gen", "generated dataset as name=kind:k1=v1,... (repeatable)", func(v string) error {
		name, sp, ok := strings.Cut(v, "=")
		if !ok {
			return fmt.Errorf("want name=kind:params, got %q", v)
		}
		df, err := generate(sp)
		if err != nil {
			return err
		}
		specs = append(specs, spec{name, df})
		return nil
	})
	flag.Parse()

	var st *store.Store
	if *storeDir != "" {
		var err error
		if st, err = store.Open(*storeDir); err != nil {
			log.Fatalf("pnnserve: opening store: %v", err)
		}
		defer st.Close()
	}
	if len(specs) == 0 && st == nil {
		fmt.Fprintln(os.Stderr, "pnnserve: no datasets; pass at least one -data or -gen (or -store)")
		flag.Usage()
		os.Exit(2)
	}

	reg := server.NewRegistry()
	for _, sp := range specs {
		if st != nil {
			if err := importDataset(st, sp.name, sp.df); err != nil {
				log.Fatalf("pnnserve: importing %s into store: %v", sp.name, err)
			}
			continue // server.New loads every store dataset
		}
		set, err := sp.df.Set()
		if err != nil {
			log.Fatalf("pnnserve: dataset %s: %v", sp.name, err)
		}
		if err := reg.Add(sp.name, set); err != nil {
			log.Fatalf("pnnserve: dataset %s: %v", sp.name, err)
		}
	}

	var logger *slog.Logger
	if *logLevel != "off" {
		level, err := obs.ParseLevel(*logLevel)
		if err != nil {
			log.Fatalf("pnnserve: %v", err)
		}
		logger = obs.NewLogger(os.Stderr, level)
	}

	srv := server.New(reg, server.Config{
		CacheSize:          orDisabled(*cacheSize),
		RequestTimeout:     orDisabledDur(*timeout),
		Store:              st,
		AdminToken:         *adminToken,
		Logger:             logger,
		SlowQueryThreshold: orDisabledDur(*slowQuery),
		TraceSampleRate:    *traceSample,
		TraceBuffer:        orDisabled(*traceBuffer),
	})
	handler := srv.Handler()
	if *pprofFlag {
		handler = obs.WithPprof(handler)
	}
	httpSrv := &http.Server{Addr: *addr, Handler: handler}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("pnnserve: listening on %s with %d dataset(s): %s",
		*addr, reg.Len(), strings.Join(reg.Names(), ", "))

	select {
	case err := <-errc:
		log.Fatalf("pnnserve: %v", err)
	case <-ctx.Done():
	}
	log.Print("pnnserve: shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		log.Printf("pnnserve: shutdown: %v", err)
	}
	srv.Close()
}

// importDataset creates a -data/-gen dataset inside the store on first
// start; a dataset that already exists is left untouched (the store is
// the source of truth once it holds the name).
func importDataset(st *store.Store, name string, df *datafile.File) error {
	if _, err := st.Dataset(name); err == nil {
		return nil
	}
	var kind string
	var pts []store.Point
	switch df.Kind {
	case datafile.KindDisks:
		kind = store.KindDisks
		for i := range df.Disks {
			pts = append(pts, store.Point{Disk: &df.Disks[i]})
		}
	case datafile.KindDiscrete:
		kind = store.KindDiscrete
		for i := range df.Discrete {
			pts = append(pts, store.Point{Discrete: &df.Discrete[i]})
		}
	default:
		return fmt.Errorf("kind %q cannot be stored", df.Kind)
	}
	// Imports run at startup before any request exists, so there is no
	// trace to join — Background is the honest context here.
	if _, err := st.CreateDataset(context.Background(), name, kind); err != nil {
		return err
	}
	if len(pts) == 0 {
		return nil
	}
	_, err := st.InsertPoints(context.Background(), name, pts)
	return err
}

// orDisabled maps the flag convention "0 disables" onto the Config
// convention "negative disables, zero means default".
func orDisabled(n int) int {
	if n == 0 {
		return -1
	}
	return n
}

func orDisabledDur(d time.Duration) time.Duration {
	if d == 0 {
		return -1
	}
	return d
}

// generate parses "kind:k1=v1,k2=v2" and builds the dataset.
func generate(spec string) (*datafile.File, error) {
	kind, rest, _ := strings.Cut(spec, ":")
	p := datafile.DefaultGenParams()
	if rest != "" {
		for _, kv := range strings.Split(rest, ",") {
			key, val, ok := strings.Cut(kv, "=")
			if !ok {
				return nil, fmt.Errorf("want key=value, got %q", kv)
			}
			if err := setGenParam(&p, strings.TrimSpace(key), strings.TrimSpace(val)); err != nil {
				return nil, err
			}
		}
	}
	return datafile.Generate(kind, p)
}

func setGenParam(p *datafile.GenParams, key, val string) error {
	switch key {
	case "n", "k":
		i, err := strconv.Atoi(val)
		if err != nil {
			return fmt.Errorf("param %s: %w", key, err)
		}
		if key == "n" {
			p.N = i
		} else {
			p.K = i
		}
		return nil
	case "seed":
		s, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			return fmt.Errorf("param seed: %w", err)
		}
		p.Seed = s
		return nil
	case "extent", "rmin", "rmax", "lambda", "spread", "radius":
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return fmt.Errorf("param %s: %w", key, err)
		}
		switch key {
		case "extent":
			p.Extent = f
		case "rmin":
			p.RMin = f
		case "rmax":
			p.RMax = f
		case "lambda":
			p.Lambda = f
		case "spread":
			p.Spread = f
		case "radius":
			p.Radius = f
		}
		return nil
	default:
		return errors.New("unknown generator param " + strconv.Quote(key))
	}
}
