package server

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"pnn"
	"pnn/server/engine"
	"pnn/store"
)

// IndexKey identifies one engine configuration of a dataset: the NN≠0
// backend plus the quantifier and its parameters. Two requests with the
// same key share one lazily built engine and one batcher.
type IndexKey struct {
	// Backend is "index", "direct", or "diagram".
	Backend string
	// Method is "exact", "spiral", "mc", or "mcbudget".
	Method string
	// Eps and Delta parameterize spiral and Monte Carlo quantifiers.
	Eps, Delta float64
	// Rounds is the explicit budget for "mcbudget".
	Rounds int
	// Seed seeds randomized quantifiers.
	Seed int64
}

// String renders the key canonically (it is part of cache keys).
func (k IndexKey) String() string {
	return fmt.Sprintf("%s/%s/eps=%g/delta=%g/rounds=%d/seed=%d",
		k.Backend, k.Method, k.Eps, k.Delta, k.Rounds, k.Seed)
}

// Options translates the key into pnn.New and pnn.NewDynamic options.
func (k IndexKey) Options() ([]pnn.Option, error) {
	opts := []pnn.Option{pnn.WithSeed(k.Seed)}
	switch k.Backend {
	case "", "index":
		opts = append(opts, pnn.WithNonzeroBackend(pnn.BackendIndex))
	case "direct":
		opts = append(opts, pnn.WithNonzeroBackend(pnn.BackendDirect))
	case "diagram":
		opts = append(opts, pnn.WithNonzeroBackend(pnn.BackendDiagram))
	default:
		return nil, fmt.Errorf("unknown backend %q", k.Backend)
	}
	switch k.Method {
	case "", "exact":
		// Exact is the construction default; passing it explicitly would
		// wrongly reject L∞ squares, which answer NN≠0 but admit no
		// quantifier (and reject any explicitly requested one).
	case "spiral":
		opts = append(opts, pnn.WithQuantifier(pnn.SpiralSearch(k.Eps)))
	case "mc":
		opts = append(opts, pnn.WithQuantifier(pnn.MonteCarlo(k.Eps, k.Delta)))
	case "mcbudget":
		opts = append(opts, pnn.WithQuantifier(pnn.MonteCarloBudget(k.Rounds)))
	default:
		return nil, fmt.Errorf("unknown method %q", k.Method)
	}
	return opts, nil
}

// Dataset is one named uncertain-point set plus its lazily built
// engines, one per IndexKey. A read-only dataset serves a fixed set; a
// durable one reads its points from the store when an engine is built,
// and afterwards its engines absorb each committed write in place
// (applyDelta) while the version advances.
type Dataset struct {
	// Name is the registry key clients address the dataset by.
	Name string
	// Kind is "disks", "discrete", or "squares".
	Kind string

	// set is a read-only dataset's immutable point set; st is a durable
	// dataset's backing store. Exactly one is non-nil.
	set pnn.UncertainSet
	st  *store.Store

	mu sync.Mutex
	// n is the current live point count.
	n int
	// version is the dataset's monotone mutation version. It keys the
	// result cache, so entries cached against an older version can
	// never be served after a write.
	version uint64
	entries map[IndexKey]*indexEntry
}

// indexEntry builds one (engine, batcher) pair exactly once;
// concurrent first users block on the build and share the result.
type indexEntry struct {
	once    sync.Once
	eng     engine.Engine
	err     error
	batcher *Batcher
	// built flips true, under Dataset.mu, once publish has made the
	// engine visible to applyDelta. Writes skip unpublished entries;
	// publish catches them up instead.
	built bool
	// applied is the dataset version the engine's state reflects — set
	// by the build (to the store version it actually read, which may be
	// ahead of the dataset's version) and advanced by publish and
	// applyDelta. Mutated only pre-publication or under Dataset.mu.
	applied uint64
}

// Version returns the dataset's monotone mutation version.
func (d *Dataset) Version() uint64 {
	_, v := d.Stats()
	return v
}

// Len returns the current point count (0 when empty).
func (d *Dataset) Len() int {
	n, _ := d.Stats()
	return n
}

// Stats returns the dataset's current point count and version under
// one lock acquisition — the consistent pair the serving path keys
// caches and emptiness checks by.
func (d *Dataset) Stats() (int, uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.n, d.version
}

// Durable reports whether the dataset is store-backed (mutable).
func (d *Dataset) Durable() bool { return d.st != nil }

// QueueDepth sums the requests queued in the dataset's batchers —
// the live backpressure signal behind the pnn_queue_depth gauge.
func (d *Dataset) QueueDepth() int {
	depth := 0
	for _, b := range d.batchers() {
		depth += b.Depth()
	}
	return depth
}

// batchers returns the batchers of the dataset's published engines.
// They are collected under d.mu (publish sets built under it, so the
// batcher field is safe to read) and used outside it, so a scrape or
// Close never holds the dataset lock across batcher calls.
func (d *Dataset) batchers() []*Batcher {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]*Batcher, 0, len(d.entries))
	for _, e := range d.entries {
		if e.built {
			out = append(out, e.batcher)
		}
	}
	return out
}

// Indexes returns the number of engines built (or building).
func (d *Dataset) Indexes() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.entries)
}

// applyDelta folds committed mutations into the dataset's published
// engines and bumps the version in place, so batchers keep draining
// and caches key naturally off the new version. An engine whose Apply
// fails is dropped from the map before the bump and rebuilt on its
// next query; queries already holding it finish on it, since its state
// is never older than the version they read. Unpublished builds are
// left alone: publish catches them up. Per-engine `applied` filtering
// keeps an engine whose build already read a newer store state from
// replaying ops twice. Stale deltas (version not newer) are ignored.
func (d *Dataset) applyDelta(info store.DatasetInfo, ops []store.DeltaOp) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if info.Version <= d.version {
		return
	}
	for key, e := range d.entries {
		if !e.built {
			continue
		}
		if err := e.eng.Apply(opsAfter(ops, e.applied)); err != nil {
			delete(d.entries, key)
			continue
		}
		if info.Version > e.applied {
			e.applied = info.Version
		}
	}
	d.n, d.version = info.N, info.Version
}

// opsAfter returns the suffix of ops with Seq > applied (ops are in
// increasing Seq order).
func opsAfter(ops []store.DeltaOp, applied uint64) []store.DeltaOp {
	i := 0
	for i < len(ops) && ops[i].Seq <= applied {
		i++
	}
	return ops[i:]
}

// ErrTooManyEngines rejects a request that would build yet another
// engine configuration once the per-dataset cap is reached. Engine
// keys include client-controlled parameters (seed, eps, …), so without
// a cap a query loop over fresh seeds would grow server memory without
// bound.
var ErrTooManyEngines = errors.New("server: too many engine configurations for dataset")

// errBuildOutpaced fails an engine build that fell further behind its
// dataset than the store's retained op tail reaches: it can no longer
// catch up, and the next query builds afresh.
var errBuildOutpaced = errors.New("server: dataset mutated past the engine build's catch-up window")

// entry returns the dataset's engine for key, creating the slot on
// first use (up to maxEngines slots; maxEngines ≤ 0 means unlimited).
// build is invoked at most once per slot, outside the dataset lock
// (index construction can be slow), and publish then makes its result
// visible to applyDelta; a panic inside build is captured into the
// entry's error rather than poisoning the slot. Every caller that
// waited on a failed build gets its error.
func (d *Dataset) entry(key IndexKey, maxEngines int, build func(*indexEntry) error) (*indexEntry, error) {
	d.mu.Lock()
	e, ok := d.entries[key]
	if !ok {
		if maxEngines > 0 && len(d.entries) >= maxEngines {
			d.mu.Unlock()
			return nil, fmt.Errorf("%w (cap %d)", ErrTooManyEngines, maxEngines)
		}
		e = &indexEntry{}
		d.entries[key] = e
	}
	d.mu.Unlock()
	e.once.Do(func() {
		defer func() {
			if r := recover(); r != nil {
				e.err = fmt.Errorf("server: building %s engine: panic: %v", key, r)
			}
		}()
		if e.err = build(e); e.err == nil {
			e.err = d.publish(e)
		}
	})
	if e.err != nil {
		// A failed build must not occupy a cap slot forever (cheap
		// failing configurations could otherwise lock the dataset out
		// of valid new engines). Concurrent waiters of this entry still
		// see the error; the next request gets a fresh slot.
		d.mu.Lock()
		if d.entries[key] == e {
			delete(d.entries, key)
		}
		d.mu.Unlock()
		return nil, e.err
	}
	return e, nil
}

// publish makes a finished build visible to applyDelta. Writes whose
// refresh ran during the build skipped the entry, so a build that read
// the store behind the dataset's version first folds in everything the
// store committed since its read.
func (d *Dataset) publish(e *indexEntry) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.st != nil && e.applied < d.version {
		info, ops, ok, err := d.st.OpsSince(d.Name, e.applied)
		if err = d.sameIncarnation(info, err); err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("%w (built at version %d, dataset at %d)", errBuildOutpaced, e.applied, d.version)
		}
		if err := e.eng.Apply(ops); err != nil {
			return err
		}
		e.applied = info.Version
	}
	e.built = true
	return nil
}

// sameIncarnation checks a store read against the dataset: a read that
// finds the name dropped, or recreated under another kind, means the
// dataset the query resolved is gone, and the query answers 404
// unknown_dataset as if it had arrived after the drop.
func (d *Dataset) sameIncarnation(info store.DatasetInfo, err error) error {
	if err == nil && info.Kind != d.Kind {
		err = fmt.Errorf("%w: %q was recreated as %s", store.ErrUnknownDataset, d.Name, info.Kind)
	}
	return err
}

// closeBatchers gracefully closes the batchers of every published
// engine; each answers its queued requests before Close returns.
func (d *Dataset) closeBatchers() {
	for _, b := range d.batchers() {
		b.Close()
	}
}

// Registry is the server's set of named datasets. It is safe for
// concurrent use: datasets can be added, mutated, and removed while
// queries are in flight.
type Registry struct {
	mu       sync.RWMutex
	datasets map[string]*Dataset
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{datasets: make(map[string]*Dataset)}
}

// Add registers a static (read-only) dataset under name at version 1.
// It rejects duplicate names and infers Kind from the set's concrete
// type.
func (r *Registry) Add(name string, set pnn.UncertainSet) error {
	if name == "" {
		return fmt.Errorf("empty dataset name")
	}
	if set == nil || set.Len() == 0 {
		return fmt.Errorf("dataset %q is empty", name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.datasets[name]; dup {
		return fmt.Errorf("duplicate dataset %q", name)
	}
	r.datasets[name] = &Dataset{
		Name: name, Kind: kindOf(set), set: set, n: set.Len(), version: 1,
		entries: make(map[IndexKey]*indexEntry),
	}
	return nil
}

// put registers a durable dataset at the store state info describes,
// replacing whatever the name held: a fresh Dataset with no engines.
func (r *Registry) put(st *store.Store, info store.DatasetInfo) {
	d := &Dataset{
		Name: info.Name, Kind: info.Kind, st: st, n: info.N, version: info.Version,
		entries: make(map[IndexKey]*indexEntry),
	}
	r.mu.Lock()
	r.datasets[d.Name] = d
	r.mu.Unlock()
}

// Remove unregisters a dataset and reports whether the name was
// present. Queries already holding its engines finish on them; only
// Server.Close closes batchers (an idle batcher holds no goroutine).
func (r *Registry) Remove(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.datasets[name]
	delete(r.datasets, name)
	return ok
}

// Get returns the named dataset, or nil.
func (r *Registry) Get(name string) *Dataset {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.datasets[name]
}

// Len returns the number of datasets.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.datasets)
}

// Names returns a copy of the dataset names in sorted order.
func (r *Registry) Names() []string {
	r.mu.RLock()
	names := make([]string, 0, len(r.datasets))
	for name := range r.datasets {
		names = append(names, name)
	}
	r.mu.RUnlock()
	sort.Strings(names)
	return names
}

func kindOf(set pnn.UncertainSet) string {
	switch set.(type) {
	case *pnn.ContinuousSet:
		return "disks"
	case *pnn.DiscreteSet:
		return "discrete"
	case *pnn.SquareSet:
		return "squares"
	default:
		return "unknown"
	}
}
