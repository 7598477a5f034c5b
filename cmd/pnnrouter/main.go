// Command pnnrouter is a stateless shard-aware routing tier in front
// of replicated pnnserve backends (see pnn/server/shard). It assigns
// datasets to backends with rendezvous hashing, scatter-gathers
// /v1/batch requests across owners, probes backend health, and fails a
// request over to the next replica in hash order exactly once.
//
// Usage:
//
//	pnnserve -addr :8081 -data fleet=fleet.json &
//	pnnserve -addr :8082 -data fleet=fleet.json &
//	pnnrouter -addr :8080 -backends localhost:8081,localhost:8082
//
//	curl 'localhost:8080/v1/nonzero?dataset=fleet&x=42&y=17'
//	curl -X POST localhost:8080/v1/batch -d '{"items":[{"dataset":"fleet","op":"topk","x":1,"y":2,"k":3}]}'
//	curl localhost:8080/metrics
//
// -backends takes a comma-separated list and may repeat. Every router
// fronting the same fleet must be given the same backend list (order
// does not matter). SIGINT/SIGTERM drain in-flight requests before
// exit.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"pnn/internal/obs"
	"pnn/server/shard"
)

var (
	addr          = flag.String("addr", ":8080", "listen address")
	timeout       = flag.Duration("timeout", 15*time.Second, "per-backend attempt timeout (0 disables)")
	probeInterval = flag.Duration("probe-interval", 2*time.Second, "backend health probe period (0 disables)")
	probeTimeout  = flag.Duration("probe-timeout", time.Second, "per-probe timeout")
	logLevel      = flag.String("log-level", "info", "structured log level: debug logs every request, info only slow ones (off disables)")
	slowQuery     = flag.Duration("slow-query", time.Second, "log requests at least this slow at Warn and keep their traces; while armed every request records its spans (0 disables both; -trace-buffer 0 stops all recording)")
	pprofFlag     = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ (off by default: it leaks stacks and heap contents)")
	traceSample   = flag.Float64("trace-sample", 0, "fraction of requests whose spans are kept at /debug/traces (0 keeps only slow traces, 1 keeps all)")
	traceBuffer   = flag.Int("trace-buffer", 256, "traces retained in the /debug/traces ring (0 disables tracing)")
)

func main() {
	var backends []string
	flag.Func("backends", "comma-separated backend base URLs (repeatable)", func(v string) error {
		for _, b := range strings.Split(v, ",") {
			if b = strings.TrimSpace(b); b != "" {
				backends = append(backends, b)
			}
		}
		return nil
	})
	flag.Parse()
	if len(backends) == 0 {
		fmt.Fprintln(os.Stderr, "pnnrouter: no backends; pass -backends host:port,host:port")
		flag.Usage()
		os.Exit(2)
	}

	var logger *slog.Logger
	if *logLevel != "off" {
		level, err := obs.ParseLevel(*logLevel)
		if err != nil {
			log.Fatalf("pnnrouter: %v", err)
		}
		logger = obs.NewLogger(os.Stderr, level)
	}

	rt, err := shard.New(shard.Config{
		Backends:           backends,
		ProbeInterval:      orDisabledDur(*probeInterval),
		ProbeTimeout:       *probeTimeout,
		RequestTimeout:     orDisabledDur(*timeout),
		Logger:             logger,
		SlowQueryThreshold: orDisabledDur(*slowQuery),
		TraceSampleRate:    *traceSample,
		TraceBuffer:        orDisabled(*traceBuffer),
	})
	if err != nil {
		log.Fatalf("pnnrouter: %v", err)
	}
	handler := rt.Handler()
	if *pprofFlag {
		handler = obs.WithPprof(handler)
	}
	httpSrv := &http.Server{Addr: *addr, Handler: handler}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("pnnrouter: listening on %s fronting %d backend(s): %s",
		*addr, len(rt.Backends()), strings.Join(rt.Backends(), ", "))

	select {
	case err := <-errc:
		log.Fatalf("pnnrouter: %v", err)
	case <-ctx.Done():
	}
	log.Print("pnnrouter: shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		log.Printf("pnnrouter: shutdown: %v", err)
	}
	rt.Close()
}

// orDisabledDur maps the flag convention "0 disables" onto the Config
// convention "negative disables, zero means default".
func orDisabledDur(d time.Duration) time.Duration {
	if d == 0 {
		return -1
	}
	return d
}

func orDisabled(n int) int {
	if n == 0 {
		return -1
	}
	return n
}
