// Package server implements pnnserve: an HTTP/JSON query server hosting
// a registry of named uncertain-point datasets behind the pnn.Index
// facade.
//
// # Architecture
//
// A request flows through four stages:
//
//	parse → result cache → lazy engine registry → batcher
//
// Each (dataset, backend, quantifier) engine is built lazily on first
// use and kept for the life of the server. Each engine's Batcher runs
// a request at once while its running pnn.Index.QueryBatchOps calls
// hold fewer requests than there are cores (GOMAXPROCS); requests that
// arrive while the cores are covered share the next call (up to 64 per
// call). An LRU cache replays
// encoded responses for repeated hot queries. Because responses are
// cached and replayed as encoded bytes, a cached answer is
// byte-identical to a freshly computed one (see pnn/api for the
// wire-format guarantees).
//
// Responses are encoded with encoding/json, except /v1/probabilities:
// its N-long vector is mostly zeros (π_i(q) > 0 only on NN≠0(q)), so
// the server writes it with its own encoder, which copies zero runs
// from a constant. That encoder writes exactly encoding/json's bytes
// and fails exactly where encoding/json fails (NaN, ±Inf);
// TestProbabilitiesBodiesMatchEncodingJSON and FuzzProbabilitiesBody
// pin it.
//
// # Endpoints
//
//	GET  /healthz           liveness and dataset count
//	GET  /metrics           Prometheus text-format counters
//	GET  /v1/datasets       hosted datasets
//	GET  /v1/nonzero        NN≠0(q)
//	GET  /v1/probabilities  quantification vector π(q)
//	GET  /v1/topk           k most probable nearest neighbors
//	GET  /v1/threshold      τ-threshold classification
//	GET  /v1/expectednn     expected-distance nearest neighbor
//	POST /v1/batch          heterogeneous batch of the five query ops
//
// Error responses carry an api.Error body with a stable Code; unknown
// dataset names are uniformly 404/api.CodeUnknownDataset on every
// path, single-query and batch alike.
//
// # Mutations
//
// With Config.Store set, datasets are durable live objects backed by
// pnn/store (write-ahead log + snapshots) and the admin endpoints
// accept online mutations:
//
//	PUT    /v1/datasets/{name}             create (idempotent)
//	DELETE /v1/datasets/{name}             drop
//	POST   /v1/datasets/{name}/points      insert (stable ids returned)
//	DELETE /v1/datasets/{name}/points/{id} delete one point
//	POST   /v1/datasets/{name}/snapshot    compact the store
//
// All of them require "Authorization: Bearer <Config.AdminToken>";
// with no token configured they are disabled, and with no store they
// answer 409 api.CodeReadOnly. A mutation is acknowledged only after
// its WAL record is fsynced. Its refresh then folds the committed op
// into the dataset's live engines in place and bumps the dataset's
// monotone version, which keys the result cache (a stale cached answer
// is structurally unreachable after a write). Batchers keep draining
// across the bump, and no query retries: an engine is never older than
// the version its query read. Every backend takes this path: a
// backend=diagram engine answers NN≠0 from its live view, which the
// first query after a write rebuilds. Queries against a
// created-but-empty dataset answer 409 api.CodeEmptyDataset.
//
// The sub-package pnn/server/shard layers a stateless scatter-gather
// routing tier over multiple replicated instances of this server; it
// forwards mutations to each dataset's rendezvous owner.
package server
