package pnn

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"pnn/internal/core"
	"pnn/internal/dist"
	"pnn/internal/geom"
	"pnn/internal/linf"
	"pnn/internal/logmethod"
	"pnn/internal/nnq"
)

// PointID names one uncertain point of a DynamicIndex for the whole
// life of the structure: query results are positional (indices into the
// live points in insertion order, exactly as a static Index built over
// the survivors would report them), while deletes address points by the
// stable PointID returned at insert. IDs() maps between the two.
type PointID uint64

// DynamicIndex is the dynamized query engine: the same query surface as
// Index over a point set that supports online inserts and deletes. It
// wraps the paper's static structures with the Bentley–Saxe logarithmic
// method (internal/logmethod): points live in O(log n) static buckets
// that merge on overflow, so an insert costs amortized O(log n)
// rebuild work; deletes are tombstones with a rebuild-at-threshold that
// compacts the decomposition once tombstones reach the live count.
//
// NN≠0 queries union per-bucket candidates — each bucket's static
// structure reports its members under the globally merged distance
// bound — and re-verify across buckets with the exact Lemma 2.1
// predicate, so every answer is bitwise identical to a freshly built
// static Index over the surviving points. Quantification queries
// (Probabilities, TopK, Threshold, PositiveProbabilities, ExpectedNN)
// answer through a lazily rebuilt live view: the first such query after
// a mutation rebuilds one static engine over the survivors, and
// subsequent queries reuse it. Under the exact discrete engine that
// rebuild shares the survivors' distributions (each validated once, at
// insert) without copying them, and the query sweeps only the Lemma 2.1
// window; Monte Carlo and spiral views redo their preprocessing over
// all survivors.
//
// Supported options match New with two exceptions: BackendDiagram is
// rejected (a diagram point-locates only its own static set and cannot
// report under a merged bound), and WithRandSource is rejected (view
// rebuilds must replay the same randomness; use WithSeed). All methods
// are safe for concurrent use; queries run under a shared read lock.
type DynamicIndex struct {
	mu   sync.RWMutex
	cfg  config
	kind dynKind

	// items is the point arena; slots are assigned in insertion order
	// and compacted (renumbered) when garbage exceeds the live count.
	items   []dynItem
	tracker *logmethod.Tracker
	// liveSlots holds the live arena slots in increasing order — which
	// is insertion order, so liveSlots[rank] is the point a static
	// Index over the survivors would call rank.
	liveSlots []int
	idToSlot  map[PointID]int
	nextID    PointID

	// liveDists holds the discrete survivors' validated distributions in
	// rank order, parallel to liveSlots. It is nil until the first view
	// is built and then tracks every insert and delete. A view's set
	// shares it (capacity capped at its length, so nothing holding the
	// set can reach the tail): an insert appends past every view's end,
	// and once liveShared is set a delete builds a fresh array instead of
	// shifting elements a view may be reading.
	liveDists  []*dist.Discrete
	liveShared bool

	// view is the lazily rebuilt static engine answering quantification
	// queries; nil until the first such query (or when empty).
	view      *Index
	viewDirty bool
	// viewRebuilds counts the views viewIndex has built.
	viewRebuilds uint64

	// rebuiltBase accumulates the rebuild-work counters of trackers
	// retired by compact, so Stats reports a lifetime total.
	rebuiltBase uint64
}

type dynKind int

const (
	dynNone dynKind = iota
	dynContinuous
	dynDiscrete
	dynSquare
)

// dynItem is one inserted point: the public value plus its precomputed
// geometry (only the fields of the index's kind are set). A discrete
// point keeps only the distribution InsertDiscrete validated; it is
// immutable, so views share it instead of validating the point again.
type dynItem struct {
	id    PointID
	disk  DiskPoint
	sq    SquarePoint
	gdisk geom.Disk
	gdisc core.DiscretePoint
	dd    *dist.Discrete
	gsq   linf.Square
}

// NewDynamic builds an empty dynamic engine. The point kind (disks,
// discrete, or squares) is fixed by the first insert; options are
// validated against it there.
func NewDynamic(opts ...Option) (*DynamicIndex, error) {
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.src != nil {
		return nil, fmt.Errorf("pnn: WithRandSource is unsupported for DynamicIndex (view rebuilds must replay the same randomness; use WithSeed): %w", ErrUnsupported)
	}
	if cfg.backend == BackendDiagram {
		return nil, fmt.Errorf("pnn: BackendDiagram is unsupported for DynamicIndex (a diagram cannot report under a merged bound): %w", ErrUnsupported)
	}
	return &DynamicIndex{
		cfg:      cfg,
		tracker:  logmethod.New(),
		idToSlot: make(map[PointID]int),
		nextID:   1,
	}, nil
}

// setKind fixes the point kind on first insert and validates the
// configuration against it, mirroring New's rules.
func (d *DynamicIndex) setKind(k dynKind) error {
	if d.kind == k {
		return nil
	}
	if d.kind != dynNone {
		return fmt.Errorf("pnn: cannot mix point kinds in one DynamicIndex: %w", ErrUnsupported)
	}
	def := L2
	if k == dynSquare {
		def = Linf
	}
	if d.cfg.metricSet && d.cfg.metric != def {
		return fmt.Errorf("pnn: metric %v is incompatible with this point kind: %w", d.cfg.metric, ErrUnsupported)
	}
	if k == dynSquare && d.cfg.quantSet {
		return fmt.Errorf("pnn: no quantifier available under L∞: %w", ErrUnsupported)
	}
	if k == dynContinuous && d.cfg.quant.kind == quantVPr {
		return fmt.Errorf("pnn: VPrDiagram requires discrete points: %w", ErrUnsupported)
	}
	d.kind = k
	return nil
}

// InsertDisk adds a continuous (disk-supported) uncertain point and
// returns its stable id.
func (d *DynamicIndex) InsertDisk(p DiskPoint) (PointID, error) {
	if err := p.validate(); err != nil {
		return 0, fmt.Errorf("pnn: %w", err)
	}
	return d.insert(dynItem{disk: p, gdisk: toDisk(p.Support)}, dynContinuous)
}

// InsertDiscrete adds a discrete uncertain point (locations and weights
// are copied) and returns its stable id.
func (d *DynamicIndex) InsertDiscrete(p DiscretePoint) (PointID, error) {
	p.Weights = slices.Clone(p.Weights)
	dd, err := p.discrete()
	if err != nil {
		return 0, fmt.Errorf("pnn: %w", err)
	}
	return d.insert(dynItem{gdisc: core.DiscretePoint{Locs: dd.Locs}, dd: dd}, dynDiscrete)
}

// InsertSquare adds an L∞ square uncertain point and returns its
// stable id.
func (d *DynamicIndex) InsertSquare(p SquarePoint) (PointID, error) {
	if err := p.validate(); err != nil {
		return 0, fmt.Errorf("pnn: %w", err)
	}
	return d.insert(dynItem{sq: p, gsq: linf.Square{C: toGeom(p.Center), R: p.R}}, dynSquare)
}

func (d *DynamicIndex) insert(it dynItem, k dynKind) (PointID, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.setKind(k); err != nil {
		return 0, err
	}
	it.id = d.nextID
	slot := len(d.items)
	d.items = append(d.items, it)
	if err := d.tracker.Insert(slot, d.buildBucket); err != nil {
		d.items = d.items[:slot]
		return 0, err
	}
	d.nextID++
	d.idToSlot[it.id] = slot
	d.liveSlots = append(d.liveSlots, slot)
	if d.liveDists != nil {
		d.liveDists = append(d.liveDists, it.dd)
	}
	d.viewDirty = true
	d.maybeCompact()
	return it.id, nil
}

// Delete removes the point with the given id. Tombstoning is O(log n);
// once tombstones (plus merged-away garbage) reach the live count the
// whole decomposition is compacted into one fresh bucket.
func (d *DynamicIndex) Delete(id PointID) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	slot, ok := d.idToSlot[id]
	if !ok {
		return fmt.Errorf("pnn: unknown point id %d", id)
	}
	need, err := d.tracker.Delete(slot)
	if err != nil {
		return err
	}
	delete(d.idToSlot, id)
	if i, found := slices.BinarySearch(d.liveSlots, slot); found {
		d.liveSlots = slices.Delete(d.liveSlots, i, i+1)
		switch {
		case d.liveShared:
			// Keep the capacity so the inserts that follow append in place.
			fresh := make([]*dist.Discrete, 0, cap(d.liveDists))
			d.liveDists = append(append(fresh, d.liveDists[:i]...), d.liveDists[i+1:]...)
			d.liveShared = false
		case d.liveDists != nil:
			d.liveDists = slices.Delete(d.liveDists, i, i+1)
		}
	}
	d.viewDirty = true
	if need {
		d.compact()
	} else {
		d.maybeCompact()
	}
	return nil
}

// maybeCompact compacts once the arena holds more garbage (tombstones
// plus members merged away after their delete) than live points, so
// memory stays O(live) under insert/delete churn.
func (d *DynamicIndex) maybeCompact() {
	if len(d.items) > 16 && len(d.items) > 2*len(d.liveSlots) {
		d.compact()
	}
}

// compact renumbers the arena down to the survivors (preserving
// insertion order) and bulk-loads them as a single fresh bucket.
func (d *DynamicIndex) compact() {
	live := make([]dynItem, 0, len(d.liveSlots))
	for _, s := range d.liveSlots {
		live = append(live, d.items[s])
	}
	d.items = live
	d.rebuiltBase += d.tracker.Rebuilt()
	d.tracker = logmethod.New()
	d.idToSlot = make(map[PointID]int, len(live))
	d.liveSlots = d.liveSlots[:0]
	slots := make([]int, len(live))
	for i := range live {
		slots[i] = i
		d.idToSlot[live[i].id] = i
		d.liveSlots = append(d.liveSlots, i)
	}
	if err := d.tracker.Bulk(slots, d.buildBucket); err != nil {
		// Unreachable: the tracker is fresh and slots are 0..n-1.
		panic(err)
	}
}

// buildBucket constructs one bucket's static structure over the given
// arena slots (the logmethod Build callback).
func (d *DynamicIndex) buildBucket(slots []int) any {
	switch d.kind {
	case dynContinuous:
		disks := make([]geom.Disk, len(slots))
		for i, s := range slots {
			disks[i] = d.items[s].gdisk
		}
		b := &contBucket{disks: disks}
		if d.cfg.backend == BackendIndex {
			b.nn = nnq.NewContinuous(disks)
		}
		return b
	case dynDiscrete:
		pts := make([]core.DiscretePoint, len(slots))
		for i, s := range slots {
			pts[i] = d.items[s].gdisc
		}
		b := &discBucket{pts: pts}
		if d.cfg.backend == BackendIndex {
			b.nn = nnq.NewDiscrete(pts)
		}
		return b
	case dynSquare:
		sqs := make([]linf.Square, len(slots))
		for i, s := range slots {
			sqs[i] = d.items[s].gsq
		}
		b := &sqBucket{sqs: sqs}
		if d.cfg.backend == BackendIndex {
			b.nn = linf.Build(sqs)
		}
		return b
	}
	panic("pnn: bucket build before kind is set")
}

// Len returns the number of live points.
func (d *DynamicIndex) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.liveSlots)
}

// IDs returns the live point ids in insertion order — the order query
// indices refer to: result index i names the point IDs()[i].
func (d *DynamicIndex) IDs() []PointID {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]PointID, len(d.liveSlots))
	for i, s := range d.liveSlots {
		out[i] = d.items[s].id
	}
	return out
}

// RankOf returns the current query index of the live point id, or
// (-1, false) when id is unknown or deleted.
func (d *DynamicIndex) RankOf(id PointID) (int, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	slot, ok := d.idToSlot[id]
	if !ok {
		return -1, false
	}
	r, found := slices.BinarySearch(d.liveSlots, slot)
	if !found {
		return -1, false
	}
	return r, true
}

// minDist and maxDist evaluate δ and Δ of one arena slot under the
// index's kind — the Lemma 2.1 distances the re-verification uses.
func (d *DynamicIndex) minDist(slot int, q geom.Point) float64 {
	switch d.kind {
	case dynContinuous:
		return d.items[slot].gdisk.MinDist(q)
	case dynDiscrete:
		return d.items[slot].gdisc.MinDist(q)
	default:
		return d.items[slot].gsq.MinDist(q)
	}
}

func (d *DynamicIndex) maxDist(slot int, q geom.Point) float64 {
	switch d.kind {
	case dynContinuous:
		return d.items[slot].gdisk.MaxDist(q)
	case dynDiscrete:
		return d.items[slot].gdisc.MaxDist(q)
	default:
		return d.items[slot].gsq.MaxDist(q)
	}
}

// Nonzero returns NN≠0(q) over the live points, in increasing index
// order (indices into the insertion-ordered survivors; see IDs). The
// answer is bitwise identical to a static Index over the same points:
// each bucket's structure reports its members with δ_i(q) below the
// globally merged bound Δ(q) = min_j Δ_j(q), dead members are filtered,
// and the arg-min point is re-judged against the second minimum on the
// degenerate δ = Δ path, exactly as the static structures do.
func (d *DynamicIndex) Nonzero(q Point) ([]int, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if len(d.liveSlots) == 0 {
		return []int{}, nil
	}
	return d.nonzeroLocked(q, nil), nil
}

// NonzeroInto is Nonzero appending into buf (reused from its start,
// grown as needed) — the caller-buffer variant matching
// Index.NonzeroInto. The returned slice shares buf's memory and is only
// valid until the next NonzeroInto call with the same buffer.
func (d *DynamicIndex) NonzeroInto(q Point, buf []int) ([]int, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if len(d.liveSlots) == 0 {
		return buf[:0], nil
	}
	return d.nonzeroLocked(q, buf[:0]), nil
}

// nonzeroLocked appends the ranks of NN≠0(q) to dst (which must be
// empty) in increasing order; the caller holds at least a read lock and
// has ruled out the empty index.
func (d *DynamicIndex) nonzeroLocked(q Point, dst []int) []int {
	gq := toGeom(q)
	// Stage 1, merged: the live minimum of Δ over all buckets.
	min1 := math.Inf(1)
	argSlot := -1
	for _, b := range d.tracker.Buckets() {
		eng := b.Data.(dynBucket)
		local, v := eng.delta(gq, func(l int) bool { return d.tracker.Alive(b.Slots[l]) })
		if local >= 0 && v < min1 {
			min1 = v
			argSlot = b.Slots[local]
		}
	}
	// Stage 2, per bucket: report δ < Δ(q), filter tombstones.
	var cand, scratch []int
	for _, b := range d.tracker.Buckets() {
		eng := b.Data.(dynBucket)
		scratch = eng.report(gq, min1, scratch[:0])
		for _, l := range scratch {
			if s := b.Slots[l]; d.tracker.Alive(s) {
				cand = append(cand, s)
			}
		}
	}
	// Degenerate arg-min path (δ_arg = Δ, e.g. zero-radius regions):
	// judge the arg-min against the second-smallest Δ, as Lemma 2.1's
	// j ≠ i exclusion requires. Mirrors the static structures' one
	// linear scan on this rare path.
	if argSlot >= 0 && d.minDist(argSlot, gq) >= min1 {
		second := math.Inf(1)
		for _, s := range d.liveSlots {
			if s != argSlot {
				if v := d.maxDist(s, gq); v < second {
					second = v
				}
			}
		}
		if d.minDist(argSlot, gq) < second {
			cand = append(cand, argSlot)
		}
	}
	if dst == nil {
		dst = make([]int, 0, len(cand))
	}
	for _, s := range cand {
		r, _ := slices.BinarySearch(d.liveSlots, s)
		dst = append(dst, r)
	}
	sort.Ints(dst)
	return dst
}

// viewIndex returns the static engine over the current survivors,
// rebuilding it when a mutation has invalidated it. A nil engine (with
// nil error) means the index is empty.
func (d *DynamicIndex) viewIndex() (*Index, error) {
	d.mu.RLock()
	if !d.viewDirty {
		v := d.view
		d.mu.RUnlock()
		return v, nil
	}
	d.mu.RUnlock()
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.viewDirty {
		return d.view, nil
	}
	if len(d.liveSlots) == 0 {
		d.view = nil
		d.viewDirty = false
		return nil, nil
	}
	set, err := d.liveSetLocked()
	if err != nil {
		return nil, err
	}
	opts := []Option{
		// The view's own NN≠0 backend is never queried (Nonzero answers
		// through the buckets); direct avoids building a second index.
		WithNonzeroBackend(BackendDirect),
		WithSeed(d.cfg.seed),
		WithIntegrationPanels(d.cfg.panels),
		WithSpiralSamples(d.cfg.spiralSamples),
	}
	if d.cfg.quantSet {
		opts = append(opts, WithQuantifier(d.cfg.quant))
	}
	v, err := New(set, opts...)
	if err != nil {
		return nil, err
	}
	d.view = v
	d.viewDirty = false
	d.viewRebuilds++
	return v, nil
}

// liveSetLocked builds the uncertain set of the survivors in insertion
// order — the set a fresh static Index would be handed. The caller holds
// the write lock: a discrete set shares liveDists (see its field doc).
func (d *DynamicIndex) liveSetLocked() (UncertainSet, error) {
	switch d.kind {
	case dynContinuous:
		pts := make([]DiskPoint, len(d.liveSlots))
		for i, s := range d.liveSlots {
			pts[i] = d.items[s].disk
		}
		return NewContinuousSet(pts)
	case dynDiscrete:
		if d.liveDists == nil {
			d.liveDists = make([]*dist.Discrete, len(d.liveSlots))
			for i, s := range d.liveSlots {
				d.liveDists[i] = d.items[s].dd
			}
		}
		n := len(d.liveDists)
		d.liveShared = true
		return &DiscreteSet{dists: d.liveDists[:n:n]}, nil
	case dynSquare:
		pts := make([]SquarePoint, len(d.liveSlots))
		for i, s := range d.liveSlots {
			pts[i] = d.items[s].sq
		}
		return NewSquareSet(pts)
	}
	return nil, fmt.Errorf("pnn: empty DynamicIndex has no kind")
}

// Probabilities returns π_i(q) for every live point, in insertion
// order, bitwise identical to a static Index with the same options over
// the survivors. An empty index answers an empty vector.
func (d *DynamicIndex) Probabilities(q Point) ([]float64, error) {
	v, err := d.viewIndex()
	if err != nil {
		return nil, err
	}
	if v == nil {
		return []float64{}, nil
	}
	return v.Probabilities(q)
}

// PositiveProbabilities reports the live points with π_i(q) > eps; see
// Index.PositiveProbabilities.
func (d *DynamicIndex) PositiveProbabilities(q Point, eps float64) ([]IndexProb, error) {
	v, err := d.viewIndex()
	if err != nil {
		return nil, err
	}
	if v == nil {
		return []IndexProb{}, nil
	}
	return v.PositiveProbabilities(q, eps)
}

// TopK returns the k most probable nearest neighbors among the live
// points; see Index.TopK.
func (d *DynamicIndex) TopK(q Point, k int) ([]IndexProb, error) {
	v, err := d.viewIndex()
	if err != nil {
		return nil, err
	}
	if v == nil {
		if k < 0 {
			return nil, fmt.Errorf("pnn: k must be non-negative, got %d: %w", k, ErrInvalidParam)
		}
		return nil, nil
	}
	return v.TopK(q, k)
}

// Threshold classifies the live points against tau; see Index.Threshold.
func (d *DynamicIndex) Threshold(q Point, tau float64) (ThresholdResult, error) {
	v, err := d.viewIndex()
	if err != nil {
		return ThresholdResult{}, err
	}
	if v == nil {
		if math.IsNaN(tau) || math.IsInf(tau, 0) {
			return ThresholdResult{}, fmt.Errorf("pnn: tau must be finite, got %g: %w", tau, ErrInvalidParam)
		}
		return ThresholdResult{}, nil
	}
	return v.Threshold(q, tau)
}

// ExpectedNN returns the live point minimizing E[d(q, P_i)]; see
// Index.ExpectedNN. An empty index answers (-1, 0).
func (d *DynamicIndex) ExpectedNN(q Point) (int, float64, error) {
	v, err := d.viewIndex()
	if err != nil {
		return -1, 0, err
	}
	if v == nil {
		return -1, 0, nil
	}
	return v.ExpectedNN(q)
}

// ProbabilitiesInto is Probabilities writing into buf (resized to Len(),
// grown as needed) — the caller-buffer variant matching
// Index.ProbabilitiesInto. The returned slice shares buf's memory and is
// only valid until the next ProbabilitiesInto call with the same buffer.
func (d *DynamicIndex) ProbabilitiesInto(q Point, buf []float64) ([]float64, error) {
	v, err := d.viewIndex()
	if err != nil {
		return nil, err
	}
	if v == nil {
		return buf[:0], nil
	}
	return v.ProbabilitiesInto(q, buf)
}

// Eps returns the additive query accuracy of the configured quantifier
// (0 for exact engines) — what Index.Eps reports for a static engine
// built with the same options.
func (d *DynamicIndex) Eps() float64 {
	switch d.cfg.quant.kind {
	case quantMonteCarlo, quantSpiral:
		return d.cfg.quant.eps
	}
	return 0
}

// QueryBatchOps answers a heterogeneous batch over the live points,
// concurrently and in input order — the same contract as
// Index.QueryBatchOps, so both engine types can sit behind one batching
// layer. Each request locks the index independently: a batch running
// concurrently with mutations answers each request against some
// then-current state, never a torn one.
func (d *DynamicIndex) QueryBatchOps(ctx context.Context, reqs []Request, workers int) ([]OpResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(reqs) == 0 {
		return nil, nil
	}
	res := make([]OpResult, len(reqs))
	runPool(ctx, len(reqs), workers, func(i int) { res[i] = d.applyOp(reqs[i]) })
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return res, nil
}

func (d *DynamicIndex) applyOp(r Request) OpResult {
	var out OpResult
	switch r.Op {
	case OpNonzero:
		out.Nonzero, out.Err = d.Nonzero(r.Q)
	case OpProbabilities:
		out.Probabilities, out.Err = d.Probabilities(r.Q)
	case OpTopK:
		out.Ranked, out.Err = d.TopK(r.Q, r.K)
	case OpThreshold:
		out.Threshold, out.Err = d.Threshold(r.Q, r.Tau)
	case OpExpectedNN:
		out.ExpectedIndex, out.ExpectedDist, out.Err = d.ExpectedNN(r.Q)
	default:
		out.Err = fmt.Errorf("pnn: unknown batch op %d: %w", r.Op, ErrUnsupported)
	}
	return out
}

// DynamicStats reports the engine's amortized-cost counters: the live
// point count, the arena garbage awaiting compaction, the bucket count
// of the logarithmic decomposition, the cumulative number of members
// passed through static bucket (re)builds since construction — the
// Bentley–Saxe amortized work a rebuild-per-write design would pay in
// full on every mutation — and the number of static quantification
// views built, at most one per run of writes followed by a
// quantification read.
type DynamicStats struct {
	Live           int
	Garbage        int
	Buckets        int
	RebuiltMembers uint64
	ViewRebuilds   uint64
}

// Stats returns the current cost counters.
func (d *DynamicIndex) Stats() DynamicStats {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return DynamicStats{
		Live:           len(d.liveSlots),
		Garbage:        len(d.items) - len(d.liveSlots),
		Buckets:        len(d.tracker.Buckets()),
		RebuiltMembers: d.rebuiltBase + d.tracker.Rebuilt(),
		ViewRebuilds:   d.viewRebuilds,
	}
}

// dynBucket is one bucket's static structure: stage-1 bound merging and
// stage-2 bounded reporting over the bucket's members (local indices).
type dynBucket interface {
	// delta returns the live arg-min member of Δ and that minimum
	// ((-1, +Inf) when no member is live — unreachable, the tracker
	// drops fully dead buckets).
	delta(q geom.Point, alive func(local int) bool) (local int, min1 float64)
	// report appends every member with δ(q) < bound to dst, tombstones
	// included (the caller filters); the appended region is unordered.
	report(q geom.Point, bound float64, dst []int) []int
}

type contBucket struct {
	disks []geom.Disk
	nn    *nnq.ContinuousIndex // nil under BackendDirect
}

func (b *contBucket) delta(q geom.Point, alive func(int) bool) (int, float64) {
	if b.nn != nil {
		// The structure's minimum is over all members; it equals the
		// live minimum whenever the arg-min is live. A dead arg-min
		// falls back to the scan below.
		if arg, v := b.nn.Nearest(q); arg >= 0 && alive(arg) {
			return arg, v
		}
	}
	arg, best := -1, math.Inf(1)
	for i, dk := range b.disks {
		if alive(i) {
			if v := dk.MaxDist(q); v < best {
				arg, best = i, v
			}
		}
	}
	return arg, best
}

func (b *contBucket) report(q geom.Point, bound float64, dst []int) []int {
	if b.nn != nil {
		return b.nn.ReportMinDistLess(q, bound, dst)
	}
	for i, dk := range b.disks {
		if dk.MinDist(q) < bound {
			dst = append(dst, i)
		}
	}
	return dst
}

type discBucket struct {
	pts []core.DiscretePoint
	nn  *nnq.DiscreteIndex // nil under BackendDirect
}

func (b *discBucket) delta(q geom.Point, alive func(int) bool) (int, float64) {
	// Stage 1 of the static structure is a linear hull scan too
	// (Theorem 3.2 pays O(n) there); scan live members directly.
	arg, best := -1, math.Inf(1)
	for i, p := range b.pts {
		if alive(i) {
			if v := p.MaxDist(q); v < best {
				arg, best = i, v
			}
		}
	}
	return arg, best
}

func (b *discBucket) report(q geom.Point, bound float64, dst []int) []int {
	if b.nn != nil {
		return b.nn.ReportMinDistLess(q, bound, dst)
	}
	for i, p := range b.pts {
		if p.MinDist(q) < bound {
			dst = append(dst, i)
		}
	}
	return dst
}

type sqBucket struct {
	sqs []linf.Square
	nn  *linf.Index // nil under BackendDirect
}

func (b *sqBucket) delta(q geom.Point, alive func(int) bool) (int, float64) {
	if b.nn != nil {
		if arg, v := b.nn.Nearest(q); arg >= 0 && alive(arg) {
			return arg, v
		}
	}
	arg, best := -1, math.Inf(1)
	for i, s := range b.sqs {
		if alive(i) {
			if v := s.MaxDist(q); v < best {
				arg, best = i, v
			}
		}
	}
	return arg, best
}

func (b *sqBucket) report(q geom.Point, bound float64, dst []int) []int {
	if b.nn != nil {
		return b.nn.ReportMinDistLess(q, bound, dst)
	}
	for i, s := range b.sqs {
		if s.MinDist(q) < bound {
			dst = append(dst, i)
		}
	}
	return dst
}
