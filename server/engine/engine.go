// Package engine abstracts the live query structure behind one
// registry entry: something that answers heterogeneous query batches
// at a dataset version, absorbs committed mutation deltas, and reports
// the write-path work it has done. Two implementations exist — Static
// wraps the build-once pnn.Index and serves read-only datasets (every
// delta demands a rebuild), and Dynamic wraps the Bentley–Saxe
// pnn.DynamicIndex and serves every durable dataset, under each NN≠0
// backend (amortized O(log n) per applied write). The registry holds
// Engines and applies deltas in place, dropping an engine for a lazy
// rebuild exactly when Apply refuses.
package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"pnn"
	"pnn/store"
)

// Querier is the batch query surface shared by pnn.Index,
// pnn.DynamicIndex, and every Engine — all a coalescing batcher needs.
type Querier interface {
	QueryBatchOps(ctx context.Context, reqs []pnn.Request, workers int) ([]pnn.OpResult, error)
}

// ErrRebuildRequired reports a delta the engine cannot fold in place;
// the caller must rebuild a fresh engine from the authoritative store
// state instead.
var ErrRebuildRequired = errors.New("engine: delta apply requires a rebuild")

// Cost is an engine's cumulative write-path work.
type Cost struct {
	// Inserts and Deletes count points applied through deltas.
	Inserts, Deletes uint64
	// RebuiltMembers counts members passed through static-structure
	// (re)builds: the full point count once for a static engine, the
	// amortized Bentley–Saxe total for a dynamic one.
	RebuiltMembers uint64
}

// Engine is one live query structure over a dataset.
type Engine interface {
	Querier
	// Len returns the current live point count.
	Len() int
	// Eps returns the additive accuracy of the configured quantifier
	// (0 for exact engines).
	Eps() float64
	// Apply folds committed mutations into the live structure, in
	// commit order. ErrRebuildRequired (possibly wrapped) means the
	// engine cannot absorb this delta and must be replaced; any error
	// leaves the engine unfit to serve past its current version.
	Apply(ops []store.DeltaOp) error
	// Cost reports the cumulative write-path work.
	Cost() Cost
}

// Static adapts a built pnn.Index: the fastest possible reads over a
// frozen point set, rebuild-on-any-write.
type Static struct {
	ix *pnn.Index
}

// NewStatic wraps a built static index.
func NewStatic(ix *pnn.Index) *Static { return &Static{ix: ix} }

// QueryBatchOps implements Querier.
func (s *Static) QueryBatchOps(ctx context.Context, reqs []pnn.Request, workers int) ([]pnn.OpResult, error) {
	return s.ix.QueryBatchOps(ctx, reqs, workers)
}

// Len implements Engine.
func (s *Static) Len() int { return s.ix.Len() }

// Eps implements Engine.
func (s *Static) Eps() float64 { return s.ix.Eps() }

// Apply always demands a rebuild: a static index cannot mutate.
func (s *Static) Apply(ops []store.DeltaOp) error {
	if len(ops) == 0 {
		return nil
	}
	return ErrRebuildRequired
}

// Cost reports the one full build.
func (s *Static) Cost() Cost { return Cost{RebuiltMembers: uint64(s.ix.Len())} }

// Dynamic adapts a pnn.DynamicIndex, translating store point ids to
// the engine's stable PointIDs so deltas address points exactly as the
// store logged them. Queries go straight to the underlying index
// (internally thread-safe); Apply and Cost serialize on their own
// mutex, and the registry additionally serializes Apply calls per
// dataset, so the id map never sees concurrent writers.
type Dynamic struct {
	dyn *pnn.DynamicIndex

	mu      sync.Mutex
	ids     map[uint64]pnn.PointID
	inserts uint64
	deletes uint64
}

// BuildDynamic constructs a dynamic engine over a dataset's live
// points (parallel ids/pts slices in insertion order, as
// store.PointsView returns them), so query result ranks match a static
// index built from the same state. opts follow pnn.NewDynamic's rules:
// WithRandSource is rejected. Under BackendDiagram the engine's NN≠0
// answers come from its live view, which the first read after a write
// rebuilds.
func BuildDynamic(ids []uint64, pts []store.Point, opts []pnn.Option) (*Dynamic, error) {
	dyn, err := pnn.NewDynamic(opts...)
	if err != nil {
		return nil, err
	}
	e := &Dynamic{dyn: dyn, ids: make(map[uint64]pnn.PointID, len(ids))}
	if len(ids) != len(pts) {
		return nil, fmt.Errorf("engine: %d ids for %d points", len(ids), len(pts))
	}
	for i := range pts {
		if err := e.insertLocked(ids[i], pts[i]); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// insertLocked inserts one stored point and records its id mapping.
// The caller holds e.mu (or is the builder, pre-publication).
func (e *Dynamic) insertLocked(id uint64, p store.Point) error {
	var pid pnn.PointID
	var err error
	switch {
	case p.Disk != nil:
		var dp pnn.DiskPoint
		if dp, err = p.Disk.Point(); err == nil {
			pid, err = e.dyn.InsertDisk(dp)
		}
	case p.Discrete != nil:
		var dp pnn.DiscretePoint
		if dp, err = p.Discrete.Point(); err == nil {
			pid, err = e.dyn.InsertDiscrete(dp)
		}
	default:
		err = errors.New("sets neither disk nor discrete")
	}
	if err != nil {
		return fmt.Errorf("engine: stored point %d: %w", id, err)
	}
	e.ids[id] = pid
	e.inserts++
	return nil
}

// QueryBatchOps implements Querier.
func (e *Dynamic) QueryBatchOps(ctx context.Context, reqs []pnn.Request, workers int) ([]pnn.OpResult, error) {
	return e.dyn.QueryBatchOps(ctx, reqs, workers)
}

// Len implements Engine.
func (e *Dynamic) Len() int { return e.dyn.Len() }

// Eps implements Engine.
func (e *Dynamic) Eps() float64 { return e.dyn.Eps() }

// Apply folds committed mutations in, in commit order. A delete of an
// id this engine never saw means the engine's state has diverged from
// the history handed to it; that is reported as ErrRebuildRequired so
// the caller rebuilds rather than serving drift.
func (e *Dynamic) Apply(ops []store.DeltaOp) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, op := range ops {
		if op.Deleted != 0 {
			pid, ok := e.ids[op.Deleted]
			if !ok {
				return fmt.Errorf("engine: delete of unknown point id %d: %w", op.Deleted, ErrRebuildRequired)
			}
			if err := e.dyn.Delete(pid); err != nil {
				return err
			}
			delete(e.ids, op.Deleted)
			e.deletes++
			continue
		}
		if len(op.IDs) != len(op.Points) {
			return fmt.Errorf("engine: malformed delta op %d: %d ids for %d points", op.Seq, len(op.IDs), len(op.Points))
		}
		for i := range op.Points {
			if err := e.insertLocked(op.IDs[i], op.Points[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

// Cost implements Engine.
func (e *Dynamic) Cost() Cost {
	e.mu.Lock()
	ins, del := e.inserts, e.deletes
	e.mu.Unlock()
	return Cost{Inserts: ins, Deletes: del, RebuiltMembers: e.dyn.Stats().RebuiltMembers}
}
