package pnn

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync"

	"pnn/internal/core"
	"pnn/internal/dist"
	"pnn/internal/geom"
	"pnn/internal/linf"
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
// method: points live in O(log n) static buckets, at most one per level
// ℓ holding at most 2^ℓ points, that merge on overflow, so an insert
// costs amortized O(log n) rebuild work. A delete flags the point's
// arena slot dead; once the dead slots reach the live count the whole
// decomposition is compacted into one fresh bucket.
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
// Under BackendDiagram, NN≠0 queries answer through the live view too,
// built as a nonzero Voronoi diagram over the survivors: a diagram
// point-locates only its own static set and cannot report under a
// merged bound, so the first NN≠0 query after a mutation pays the
// diagram's rebuild.
//
// Supported options match New with one exception: WithRandSource is
// rejected (view rebuilds must replay the same randomness; use
// WithSeed). All methods are safe for concurrent use; queries run under
// a shared read lock.
type DynamicIndex struct {
	mu   sync.RWMutex
	cfg  config
	kind dynKind

	// items is the point arena in insertion order. Ids are issued in
	// that order and compaction keeps it, so ids strictly increase
	// along the arena and slotOf binary-searches it.
	items []dynItem
	// levels is the logarithmic decomposition: levels[ℓ] is nil or one
	// bucket of at most 2^ℓ arena slots. Every live slot sits in exactly
	// one bucket.
	levels []*bucket
	// liveSlots holds the live arena slots in increasing order — which
	// is insertion order, so liveSlots[rank] is the point a static
	// Index over the survivors would call rank.
	liveSlots []int
	nextID    PointID
	// rebuilt counts the members passed through bucket builds since
	// construction, compactions included.
	rebuilt uint64

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
	// queries, and NN≠0 queries under BackendDiagram; nil until the
	// first such query (or when empty).
	view      *Index
	viewDirty bool
	// viewRebuilds counts the views viewIndex has built.
	viewRebuilds uint64
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
// The fields a locate reads come first.
type dynItem struct {
	id PointID
	// dead marks a deleted point. Its slot stays in the arena, and in
	// its bucket, until a merge or a compaction drops it.
	dead  bool
	gdisk geom.Disk
	gdisc core.DiscretePoint
	gsq   linf.Square
	dd    *dist.Discrete
	disk  DiskPoint
	sq    SquarePoint
}

// NewDynamic builds an empty dynamic engine. The point kind (disks,
// discrete, or squares) is fixed by the first insert; options are
// validated against it there.
func NewDynamic(opts ...Option) (*DynamicIndex, error) {
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.src != nil {
		return nil, fmt.Errorf("pnn: WithRandSource is unsupported for DynamicIndex (view rebuilds must replay the same randomness; use WithSeed): %w", ErrUnsupported)
	}
	return &DynamicIndex{cfg: cfg, nextID: 1}, nil
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
	if k == dynSquare && d.cfg.backend == BackendDiagram {
		return fmt.Errorf("pnn: no diagram backend under L∞: %w", ErrUnsupported)
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
	d.nextID++
	slot := len(d.items)
	d.items = append(d.items, it)
	d.liveSlots = append(d.liveSlots, slot)
	if d.liveDists != nil {
		d.liveDists = append(d.liveDists, it.dd)
	}
	d.viewDirty = true
	// The Bentley–Saxe cascade: while the new bucket's level is taken,
	// merge it with the occupant and move up to the merged size's level.
	cur := []int{slot}
	for lvl := 0; lvl < len(d.levels) && d.levels[lvl] != nil; lvl = levelFor(len(cur)) {
		cur = d.mergeLive(cur, d.levels[lvl])
		d.levels[lvl] = nil
	}
	d.place(cur)
	return it.id, nil
}

// Delete removes the point with the given id by flagging its arena
// slot dead. Once the dead slots reach the live count the whole
// decomposition is compacted into one fresh bucket, so the arena stays
// within twice the survivors and as many deletes pay for each
// compaction.
func (d *DynamicIndex) Delete(id PointID) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	slot, ok := d.slotOf(id)
	if !ok {
		return fmt.Errorf("pnn: unknown point id %d", id)
	}
	d.items[slot].dead = true
	i, _ := slices.BinarySearch(d.liveSlots, slot)
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
	d.viewDirty = true
	for lvl, b := range d.levels {
		if b == nil {
			continue
		}
		if _, in := slices.BinarySearch(b.slots, slot); in {
			// A fully dead bucket answers nothing; drop it so no locate
			// scans it.
			if b.dead++; b.dead == len(b.slots) {
				d.levels[lvl] = nil
			}
			break
		}
	}
	if len(d.items)-len(d.liveSlots) >= len(d.liveSlots) {
		d.compact()
	}
	return nil
}

// slotOf returns the arena slot of the live point id.
func (d *DynamicIndex) slotOf(id PointID) (int, bool) {
	s, found := sort.Find(len(d.items), func(i int) int { return cmp.Compare(id, d.items[i].id) })
	return s, found && !d.items[s].dead
}

// compact drops the dead slots from the arena, keeping insertion order,
// and rebuilds the survivors as one bucket.
func (d *DynamicIndex) compact() {
	live := make([]dynItem, len(d.liveSlots))
	for i, s := range d.liveSlots {
		live[i] = d.items[s]
		d.liveSlots[i] = i
	}
	d.items = live
	d.levels = nil
	if len(live) > 0 {
		// A copy: deletes shift liveSlots in place.
		d.place(slices.Clone(d.liveSlots))
	}
}

// mergeLive returns cur together with b's live members in increasing
// slot order; b's dead members leave the decomposition.
func (d *DynamicIndex) mergeLive(cur []int, b *bucket) []int {
	out := make([]int, 0, len(cur)+len(b.slots)-b.dead)
	for _, s := range b.slots {
		if !d.items[s].dead {
			out = append(out, s)
		}
	}
	out = append(out, cur...)
	slices.Sort(out)
	return out
}

// place builds one bucket over slots (increasing, all live) at the
// level their count needs, which the caller has left free.
func (d *DynamicIndex) place(slots []int) {
	lvl := levelFor(len(slots))
	for len(d.levels) <= lvl {
		d.levels = append(d.levels, nil)
	}
	d.rebuilt += uint64(len(slots))
	b := &bucket{slots: slots}
	if d.cfg.backend == BackendIndex {
		switch d.kind {
		case dynContinuous:
			disks := make([]geom.Disk, len(slots))
			for i, s := range slots {
				disks[i] = d.items[s].gdisk
			}
			b.nn = nnq.NewContinuous(disks)
		case dynDiscrete:
			pts := make([]core.DiscretePoint, len(slots))
			for i, s := range slots {
				pts[i] = d.items[s].gdisc
			}
			b.nn = nnq.NewDiscrete(pts)
		case dynSquare:
			sqs := make([]linf.Square, len(slots))
			for i, s := range slots {
				sqs[i] = d.items[s].gsq
			}
			b.nn = linf.Build(sqs)
		}
	}
	d.levels[lvl] = b
}

// levelFor returns the smallest level ℓ whose capacity 2^ℓ holds n ≥ 1
// members.
func levelFor(n int) int { return bits.Len(uint(n - 1)) }

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
	slot, ok := d.slotOf(id)
	if !ok {
		return -1, false
	}
	r, _ := slices.BinarySearch(d.liveSlots, slot)
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
// degenerate δ = Δ path, exactly as the static structures do. Under
// BackendDiagram the live view's diagram answers instead.
func (d *DynamicIndex) Nonzero(q Point) ([]int, error) {
	if d.cfg.backend == BackendDiagram {
		return d.viewNonzero(q, []int{})
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	if len(d.liveSlots) == 0 {
		return []int{}, nil
	}
	return d.nonzeroLocked(q, []int{}), nil
}

// NonzeroInto is Nonzero appending into buf (reused from its start,
// grown as needed) — the caller-buffer variant matching
// Index.NonzeroInto. The returned slice shares buf's memory and is only
// valid until the next NonzeroInto call with the same buffer.
func (d *DynamicIndex) NonzeroInto(q Point, buf []int) ([]int, error) {
	if d.cfg.backend == BackendDiagram {
		return d.viewNonzero(q, buf[:0])
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	if len(d.liveSlots) == 0 {
		return buf[:0], nil
	}
	return d.nonzeroLocked(q, buf[:0]), nil
}

// viewNonzero answers NN≠0(q) from the live view's diagram, appending
// to dst (empty); an empty index answers dst without building a view.
// It must run without the lock: viewIndex takes the write lock to
// rebuild.
func (d *DynamicIndex) viewNonzero(q Point, dst []int) ([]int, error) {
	v, err := d.viewIndex()
	if err != nil {
		return nil, err
	}
	if v == nil {
		return dst, nil
	}
	return v.NonzeroInto(q, dst)
}

// nonzeroLocked appends the ranks of NN≠0(q) to dst (which must be
// empty) in increasing order; the caller holds at least a read lock and
// has ruled out the empty index.
func (d *DynamicIndex) nonzeroLocked(q Point, dst []int) []int {
	gq := toGeom(q)
	// Stage 1, merged: the live minimum of Δ over all buckets.
	min1 := math.Inf(1)
	argSlot := -1
	for _, b := range d.levels {
		if b == nil {
			continue
		}
		if s, v := d.delta(b, gq); v < min1 {
			min1, argSlot = v, s
		}
	}
	// Stage 2, per bucket: report the live slots with δ < Δ(q).
	for _, b := range d.levels {
		if b != nil {
			dst = d.report(b, gq, min1, dst)
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
			dst = append(dst, argSlot)
		}
	}
	for i, s := range dst {
		dst[i], _ = slices.BinarySearch(d.liveSlots, s)
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
	// Only a diagram view answers NN≠0 (Nonzero otherwise answers
	// through the buckets); direct avoids building a second index.
	backend := BackendDirect
	if d.cfg.backend == BackendDiagram {
		backend = BackendDiagram
	}
	opts := []Option{
		WithNonzeroBackend(backend),
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
		if math.IsNaN(eps) {
			return nil, errNaNEps
		}
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
	return queryBatchOps(ctx, d, reqs, workers)
}

// DynamicStats reports the engine's amortized-cost counters: the live
// point count, the arena garbage awaiting compaction, the bucket count
// of the logarithmic decomposition, the cumulative number of members
// passed through static bucket (re)builds since construction — the
// Bentley–Saxe amortized work a rebuild-per-write design would pay in
// full on every mutation — and the number of static views built, at
// most one per run of writes followed by a read the view answers: a
// quantification read, or under BackendDiagram also an NN≠0 read.
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
	s := DynamicStats{
		Live:           len(d.liveSlots),
		Garbage:        len(d.items) - len(d.liveSlots),
		RebuiltMembers: d.rebuilt,
		ViewRebuilds:   d.viewRebuilds,
	}
	for _, b := range d.levels {
		if b != nil {
			s.Buckets++
		}
	}
	return s
}

// bucket is one static structure of the decomposition: its members'
// arena slots in increasing order, how many of them are dead, and the
// kind's NN≠0 structure over them as built (nil under BackendDirect,
// whose locates scan the arena). Dead members stay until the next
// merge or compaction.
type bucket struct {
	slots []int
	dead  int
	nn    reporter
}

// reporter is the stage-2 report all three NN≠0 structures
// (nnq.ContinuousIndex, nnq.DiscreteIndex, linf.Index) share.
type reporter interface {
	ReportMinDistLess(q geom.Point, bound float64, dst []int) []int
}

// nearester is the stage-1 answer the continuous and L∞ structures add.
type nearester interface {
	Nearest(q geom.Point) (int, float64)
}

// delta returns b's live arg-min slot of Δ and that minimum; a bucket
// always holds a live member.
func (d *DynamicIndex) delta(b *bucket, q geom.Point) (int, float64) {
	// The structure's minimum is over all members; it is the live
	// minimum whenever its arg-min is live, and a dead arg-min falls
	// back to the scan below.
	if nn, ok := b.nn.(nearester); ok {
		if l, v := nn.Nearest(q); l >= 0 && !d.items[b.slots[l]].dead {
			return b.slots[l], v
		}
	}
	arg, best := -1, math.Inf(1)
	for _, s := range b.slots {
		if !d.items[s].dead {
			if v := d.maxDist(s, q); v < best {
				arg, best = s, v
			}
		}
	}
	return arg, best
}

// report appends b's live slots with δ(q) < bound to dst, unordered.
func (d *DynamicIndex) report(b *bucket, q geom.Point, bound float64, dst []int) []int {
	n := len(dst)
	if b.nn == nil {
		for _, s := range b.slots {
			if !d.items[s].dead && d.minDist(s, q) < bound {
				dst = append(dst, s)
			}
		}
		return dst
	}
	// The structure reports member positions; map them to slots in
	// place, dropping the dead.
	dst = b.nn.ReportMinDistLess(q, bound, dst)
	kept := dst[:n]
	for _, l := range dst[n:] {
		if s := b.slots[l]; !d.items[s].dead {
			kept = append(kept, s)
		}
	}
	return kept
}
