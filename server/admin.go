package server

import (
	"context"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"pnn/api"
	"pnn/internal/datafile"
	"pnn/internal/obs"
	"pnn/store"
)

// admin wraps a mutation handler with the write-path preconditions:
// a durable store must be configured (else 409 read_only), the admin
// token must be configured (else 403 — the surface is authenticated by
// design, never open by omission), and the request must carry it as a
// bearer token (else 401/403).
func (s *Server) admin(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.cfg.Store == nil {
			s.writeError(w, r, http.StatusConflict, api.CodeReadOnly,
				errors.New("server runs without a durable store; datasets are read-only"))
			return
		}
		if s.cfg.AdminToken == "" {
			s.writeError(w, r, http.StatusForbidden, api.CodeUnauthorized,
				errors.New("admin token not configured; mutations disabled"))
			return
		}
		got, ok := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer ")
		if !ok {
			s.writeError(w, r, http.StatusUnauthorized, api.CodeUnauthorized,
				errors.New("missing bearer token"))
			return
		}
		if subtle.ConstantTimeCompare([]byte(got), []byte(s.cfg.AdminToken)) != 1 {
			s.writeError(w, r, http.StatusForbidden, api.CodeUnauthorized,
				errors.New("wrong admin token"))
			return
		}
		h(w, r)
	}
}

// refreshDataset brings the registry up to date with the store after a
// mutation: the ops committed since the registry's version fold into
// the dataset's live engines in place, and the version bump re-keys the
// result cache. A dropped dataset is removed; a first load registers
// it. When the op tail cannot bridge the registry's version (a gap) or
// the kind changed, the name was dropped and recreated behind this
// refresh's back, and the registry's Dataset is replaced whole, exactly
// as a drop followed by a create would replace it. Refreshes of one
// name are serialized (see lockRefresh): Remove has no version to
// compare against, so an unserialized slow refresh from an older
// mutation could read the dataset before a concurrent drop commits and
// then register it after the drop's Remove — resurrecting a registry
// entry for a dataset the store no longer holds. Under the per-name
// lock each refresh reads the store's current state, so the last one
// to run leaves the registry agreeing with the store.
func (s *Server) refreshDataset(ctx context.Context, name string) error {
	// Time the per-name lock acquisition: under write contention this is
	// where mutations queue, and the wait is invisible to the WAL and
	// apply histograms. The label is the dataset name only when the
	// registry resolves it, so churned create-test-drop names cannot
	// inflate the cardinality.
	label := "other"
	if s.reg.Get(name) != nil {
		label = name
	}
	start := time.Now()
	l := s.lockRefresh(name)
	obs.Stage(ctx, "refresh.lock", s.metrics.lockWait.With(label), start, time.Now())
	defer s.unlockRefresh(name, l)

	d := s.reg.Get(name)
	var since uint64
	if d != nil {
		since = d.Version()
	}
	info, ops, ok, err := s.cfg.Store.OpsSince(name, since)
	switch {
	case errors.Is(err, store.ErrUnknownDataset):
		s.reg.Remove(name)
		return nil
	case err != nil:
		return err
	case d == nil || !d.Durable():
		// First load of the name: nothing to delta against.
	case info.Kind != d.Kind:
		s.metrics.deltaFallbacks.Inc("kind_change")
	case !ok:
		s.metrics.deltaFallbacks.Inc("tail_gap")
	default:
		start = time.Now()
		d.applyDelta(info, ops)
		obs.Stage(ctx, "delta.apply", s.metrics.deltaApply, start, time.Now(), "dataset", name)
		s.metrics.deltaApplied.Inc()
		return nil
	}
	s.reg.put(s.cfg.Store, info)
	return nil
}

// refreshLock is one name's refresh mutex plus the count of holders
// and waiters; the count lets unlockRefresh reclaim the map entry once
// nobody references it, so the map does not grow one entry per dataset
// name ever mutated (names are client-chosen with unbounded
// cardinality — think create-test-drop loops over generated names).
type refreshLock struct {
	mu   sync.Mutex
	refs int
}

// lockRefresh acquires the refresh lock for one dataset name, creating
// it on first use. The ref count is taken under refreshMu before
// blocking on the name lock, so a concurrent unlockRefresh can never
// delete an entry someone is still queued on.
func (s *Server) lockRefresh(name string) *refreshLock {
	s.refreshMu.Lock()
	l, ok := s.refreshLocks[name]
	if !ok {
		l = &refreshLock{}
		s.refreshLocks[name] = l
	}
	l.refs++
	s.refreshMu.Unlock()
	l.mu.Lock()
	return l
}

func (s *Server) unlockRefresh(name string, l *refreshLock) {
	l.mu.Unlock()
	s.refreshMu.Lock()
	l.refs--
	if l.refs == 0 {
		delete(s.refreshLocks, name)
	}
	s.refreshMu.Unlock()
}

// writeMutation acknowledges one applied (and fsynced) mutation.
func (s *Server) writeMutation(w http.ResponseWriter, m store.Mutation) {
	s.writeJSON(w, http.StatusOK, api.Mutation{
		Dataset: m.Dataset, Version: m.Version, N: m.N, IDs: m.IDs,
	}, "")
}

// mutationError maps store failures onto transport statuses and stable
// api codes.
func (s *Server) mutationError(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case errors.Is(err, store.ErrUnknownDataset):
		s.writeError(w, r, http.StatusNotFound, api.CodeUnknownDataset, err)
	case errors.Is(err, store.ErrUnknownPoint):
		s.writeError(w, r, http.StatusNotFound, api.CodeUnknownPoint, err)
	case errors.Is(err, store.ErrExists):
		s.writeError(w, r, http.StatusConflict, api.CodeExists, err)
	case errors.Is(err, store.ErrKindMismatch):
		s.writeError(w, r, http.StatusBadRequest, api.CodeBadParam, err)
	case errors.Is(err, store.ErrClosed):
		// A poisoned store (dead disk, failed fsync) is retryable against
		// a recovered or failed-over server — unavailable, not a bug.
		s.writeError(w, r, http.StatusServiceUnavailable, api.CodeUnavailable, err)
	default:
		// Everything else the store rejects before logging is input
		// validation (bad names, bad kinds, malformed points).
		s.writeError(w, r, http.StatusBadRequest, api.CodeBadParam, err)
	}
}

// handleCreateDataset serves PUT /v1/datasets/{name}. The PUT is
// idempotent: re-creating an existing dataset with the same kind
// answers its current state, a conflicting kind answers 409.
func (s *Server) handleCreateDataset(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req api.CreateDataset
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, api.MaxMutationBytes)).Decode(&req); err != nil {
		s.writeError(w, r, http.StatusBadRequest, api.CodeBadRequest,
			fmt.Errorf("decoding create request: %w", err))
		return
	}
	m, err := s.cfg.Store.CreateDataset(r.Context(), name, req.Kind)
	if errors.Is(err, store.ErrExists) {
		info, ierr := s.cfg.Store.Dataset(name)
		if ierr != nil {
			// Dropped concurrently between the create and this lookup;
			// a retry would succeed, so report the lookup outcome
			// rather than a phantom conflict.
			s.mutationError(w, r, ierr)
			return
		}
		if info.Kind == req.Kind {
			s.writeMutation(w, store.Mutation{Dataset: name, Version: info.Version, N: info.N})
			return
		}
		s.writeError(w, r, http.StatusConflict, api.CodeExists,
			fmt.Errorf("dataset %q already exists with kind %q", name, info.Kind))
		return
	}
	if err != nil {
		s.mutationError(w, r, err)
		return
	}
	if err := s.refreshDataset(r.Context(), name); err != nil {
		s.writeError(w, r, http.StatusInternalServerError, api.CodeInternal, err)
		return
	}
	s.writeMutation(w, m)
}

// handleDropDataset serves DELETE /v1/datasets/{name}. The ack
// reports version 0: the dataset no longer has one (a re-created
// namesake resumes at a higher version, never a repeated one).
func (s *Server) handleDropDataset(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if _, err := s.cfg.Store.DropDataset(r.Context(), name); err != nil {
		s.mutationError(w, r, err)
		return
	}
	if err := s.refreshDataset(r.Context(), name); err != nil {
		s.writeError(w, r, http.StatusInternalServerError, api.CodeInternal, err)
		return
	}
	s.writeMutation(w, store.Mutation{Dataset: name})
}

// handleInsertPoints serves POST /v1/datasets/{name}/points.
func (s *Server) handleInsertPoints(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req api.InsertPoints
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, api.MaxMutationBytes)).Decode(&req); err != nil {
		s.writeError(w, r, http.StatusBadRequest, api.CodeBadRequest,
			fmt.Errorf("decoding insert request: %w", err))
		return
	}
	pts, err := storePoints(req)
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, api.CodeBadParam, err)
		return
	}
	// The store span groups the WAL and fsync legs of the commit under
	// one node, so a trace reads top-down: insert → wal.append →
	// fsync.wait, then delta.apply as the refresh leg.
	ctx, span := obs.StartSpan(r.Context(), "store.insert")
	span.SetAttr("dataset", name)
	m, err := s.cfg.Store.InsertPoints(ctx, name, pts)
	span.End()
	if err != nil {
		s.mutationError(w, r, err)
		return
	}
	if err := s.refreshDataset(r.Context(), name); err != nil {
		s.writeError(w, r, http.StatusInternalServerError, api.CodeInternal, err)
		return
	}
	s.writeMutation(w, m)
}

// handleDeletePoint serves DELETE /v1/datasets/{name}/points/{id}.
func (s *Server) handleDeletePoint(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, api.CodeBadParam,
			fmt.Errorf("invalid point id %q", r.PathValue("id")))
		return
	}
	m, err := s.cfg.Store.DeletePoint(r.Context(), name, id)
	if err != nil {
		s.mutationError(w, r, err)
		return
	}
	if err := s.refreshDataset(r.Context(), name); err != nil {
		s.writeError(w, r, http.StatusInternalServerError, api.CodeInternal, err)
		return
	}
	s.writeMutation(w, m)
}

// handleSnapshot serves POST /v1/datasets/{name}/snapshot. Compaction
// is store-wide (one WAL serves every dataset); the per-dataset route
// keeps the admin surface uniform and confirms the dataset exists.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	info, err := s.cfg.Store.Dataset(name)
	if err != nil {
		s.mutationError(w, r, err)
		return
	}
	if err := s.cfg.Store.Compact(r.Context()); err != nil {
		s.writeError(w, r, http.StatusInternalServerError, api.CodeInternal, err)
		return
	}
	s.writeMutation(w, store.Mutation{Dataset: name, Version: info.Version, N: info.N})
}

// storePoints converts the wire insert body into store points,
// enforcing the exactly-one-kind shape.
func storePoints(req api.InsertPoints) ([]store.Point, error) {
	if len(req.Disks) > 0 && len(req.Discrete) > 0 {
		return nil, errors.New("insert body must set exactly one of disks and discrete")
	}
	var out []store.Point
	for _, d := range req.Disks {
		out = append(out, store.Point{Disk: &datafile.DiskJSON{
			X: d.X, Y: d.Y, R: d.R, Density: d.Density, Sigma: d.Sigma,
		}})
	}
	for _, d := range req.Discrete {
		out = append(out, store.Point{Discrete: &datafile.DiscreteJSON{
			X: d.X, Y: d.Y, W: d.W,
		}})
	}
	if len(out) == 0 {
		return nil, errors.New("insert body holds no points")
	}
	return out, nil
}
