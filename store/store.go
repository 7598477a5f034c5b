package store

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"sync"
	"time"

	"pnn"
	"pnn/internal/obs"
)

const (
	walFile      = "wal.log"
	snapshotFile = "snapshot.bin"
)

// Sentinel errors of the mutation surface; serving layers map them to
// stable API codes.
var (
	// ErrExists reports a CreateDataset of a name already present.
	ErrExists = errors.New("store: dataset already exists")
	// ErrUnknownDataset reports an op against an absent dataset.
	ErrUnknownDataset = errors.New("store: unknown dataset")
	// ErrUnknownPoint reports a DeletePoint of an absent point id.
	ErrUnknownPoint = errors.New("store: unknown point")
	// ErrKindMismatch reports a point whose shape does not match its
	// dataset's kind.
	ErrKindMismatch = errors.New("store: point kind mismatch")
	// ErrClosed reports an op on a closed store.
	ErrClosed = errors.New("store: closed")
)

// nameRE bounds dataset names: they travel in URL paths, file-backed
// logs, and cache keys.
var nameRE = regexp.MustCompile(`^[A-Za-z0-9._-]{1,128}$`)

// storedPoint is one live point: a stable id plus its data. Points of
// a dataset are kept in increasing id order, which is insertion order.
type storedPoint struct {
	ID uint64
	P  Point
}

// dataset is the in-memory state of one named dataset.
type dataset struct {
	kind    string
	nextID  uint64
	version uint64
	points  []storedPoint // increasing ID
	// tail is the retained recent mutation history: exactly the ops
	// with Seq in (tailBase, version], in commit order. OpsSince answers
	// from it; once it would exceed maxTail the oldest half is dropped
	// and tailBase advances, forcing readers further back onto a full
	// PointsView read.
	tail     []DeltaOp
	tailBase uint64
}

// maxTail bounds the per-dataset retained op history. Refreshes read
// the tail promptly after each commit, so in steady state it holds a
// handful of ops; the cap only matters when a reader stalls.
const maxTail = 1024

// appendTail retains one committed op, trimming the oldest half when
// the history exceeds maxTail so trims stay amortized O(1).
func (d *dataset) appendTail(op DeltaOp) {
	d.tail = append(d.tail, op)
	if len(d.tail) > maxTail {
		drop := len(d.tail) - maxTail/2
		d.tailBase = d.tail[drop-1].Seq
		d.tail = slices.Delete(d.tail, 0, drop)
	}
}

// DeltaOp is one committed mutation of a dataset's point set in
// engine-replayable form: either an insert of Points with their
// assigned IDs (parallel slices, insertion order) or the deletion of
// one point (Deleted != 0). Seq is the store sequence number — the
// dataset version the op produced. The slices are immutable history
// shared across readers; callers must not mutate them.
type DeltaOp struct {
	Seq     uint64
	IDs     []uint64
	Points  []Point
	Deleted uint64
}

func (d *dataset) find(id uint64) (int, bool) {
	return sort.Find(len(d.points), func(i int) int {
		switch {
		case id < d.points[i].ID:
			return -1
		case id > d.points[i].ID:
			return 1
		default:
			return 0
		}
	})
}

// record is one WAL entry (JSON payload inside the CRC frame).
type record struct {
	Seq     uint64  `json:"seq"`
	Op      string  `json:"op"` // "create", "drop", "insert", "delete"
	Dataset string  `json:"dataset"`
	Kind    string  `json:"kind,omitempty"`
	FirstID uint64  `json:"first_id,omitempty"`
	Points  []Point `json:"points,omitempty"`
	ID      uint64  `json:"id,omitempty"`
}

// Store is a directory of durable datasets. All methods are safe for
// concurrent use; see the package docs for the durability and ordering
// contracts.
type Store struct {
	dir     string
	metrics *metrics

	mu       sync.Mutex
	wal      *wal
	datasets map[string]*dataset
	seq      uint64
	closed   bool
}

// Mutation is the acknowledgment of one applied op: the dataset's new
// monotone version and point count, plus the ids assigned by an
// InsertPoints.
type Mutation struct {
	Dataset string
	Version uint64
	N       int
	IDs     []uint64
}

// DatasetInfo describes one dataset for listings.
type DatasetInfo struct {
	Name    string
	Kind    string
	N       int
	Version uint64
}

// Open loads (or initializes) the store in dir: the snapshot is read
// first, then the WAL tail is replayed, and a torn tail from a crash
// mid-append is truncated away. The recovered state is exactly the
// longest durable prefix of the op sequence.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{dir: dir, metrics: newStoreMetrics(), datasets: make(map[string]*dataset)}
	doc, ok, err := readSnapshot(dir)
	if err != nil {
		return nil, err
	}
	if ok {
		s.seq = doc.LastSeq
		for _, sd := range doc.Datasets {
			s.datasets[sd.Name] = &dataset{
				kind:     sd.Kind,
				nextID:   sd.NextID,
				version:  sd.Version,
				points:   sd.Points,
				tailBase: sd.Version,
			}
		}
	}
	w, _, err := openWAL(filepath.Join(dir, walFile))
	if err != nil {
		return nil, err
	}
	w.metrics = s.metrics
	s.metrics.walBytes = obs.NewGaugeFunc("pnn_store_wal_size_bytes", func() float64 {
		w.mu.Lock()
		defer w.mu.Unlock()
		return float64(w.written)
	})
	snapSeq := s.seq
	good, torn, err := replayWAL(w.f, func(payload []byte) error {
		var rec record
		if err := json.Unmarshal(payload, &rec); err != nil {
			return fmt.Errorf("store: undecodable wal record (checksum valid): %w", err)
		}
		// Counted before the snapshot-seq filter: replay progress means
		// frames scanned, which is what a long recovery spends time on.
		s.metrics.replayRecords.Inc()
		if rec.Seq <= snapSeq {
			return nil // already folded into the snapshot
		}
		if err := s.apply(rec); err != nil {
			return fmt.Errorf("store: replaying op %d: %w", rec.Seq, err)
		}
		s.seq = rec.Seq
		return nil
	})
	if err != nil {
		w.close()
		return nil, err
	}
	if torn {
		// Crash mid-append: drop the torn tail so the next append starts
		// at a clean frame boundary. The intact prefix is exactly the
		// acknowledged (or in-flight-but-complete) ops.
		if err := w.truncateTo(good); err != nil {
			w.close()
			return nil, err
		}
	}
	s.wal = w
	return s, nil
}

// apply mutates in-memory state with one validated record. It is the
// single state-transition function, shared by the live write path and
// recovery, so replay reconstructs exactly what the writer built.
func (s *Store) apply(rec record) error {
	switch rec.Op {
	case "create":
		if _, dup := s.datasets[rec.Dataset]; dup {
			return ErrExists
		}
		if rec.Kind != KindDisks && rec.Kind != KindDiscrete {
			return fmt.Errorf("store: unknown kind %q", rec.Kind)
		}
		s.datasets[rec.Dataset] = &dataset{kind: rec.Kind, nextID: 1, version: rec.Seq, tailBase: rec.Seq}
	case "drop":
		if _, ok := s.datasets[rec.Dataset]; !ok {
			return ErrUnknownDataset
		}
		delete(s.datasets, rec.Dataset)
	case "insert":
		d, ok := s.datasets[rec.Dataset]
		if !ok {
			return ErrUnknownDataset
		}
		if rec.Kind != "" && rec.Kind != d.kind {
			// The dataset was dropped and recreated under another kind
			// between this op's validation and its apply.
			return ErrKindMismatch
		}
		id := rec.FirstID
		ids := make([]uint64, 0, len(rec.Points))
		for _, p := range rec.Points {
			d.points = append(d.points, storedPoint{ID: id, P: p})
			ids = append(ids, id)
			id++
		}
		if id > d.nextID {
			d.nextID = id
		}
		d.version = rec.Seq
		d.appendTail(DeltaOp{Seq: rec.Seq, IDs: ids, Points: rec.Points})
	case "delete":
		d, ok := s.datasets[rec.Dataset]
		if !ok {
			return ErrUnknownDataset
		}
		i, found := d.find(rec.ID)
		if !found {
			return ErrUnknownPoint
		}
		d.points = append(d.points[:i], d.points[i+1:]...)
		d.version = rec.Seq
		d.appendTail(DeltaOp{Seq: rec.Seq, Deleted: rec.ID})
	default:
		return fmt.Errorf("store: unknown op %q", rec.Op)
	}
	return nil
}

// commit assigns the next sequence number, applies rec, and writes it
// to the WAL under the store lock (so sequence order, apply order, and
// log order agree), then waits for the group-commit fsync outside the
// lock before acknowledging. ctx carries the caller's trace: the
// wal.append span covers the store-lock tenure plus the log write, the
// fsync.wait span the group-commit wait — together they decompose
// where a slow write actually spent its time.
func (s *Store) commit(ctx context.Context, rec record) (Mutation, error) {
	span := obs.LeafSpan(ctx, "wal.append")
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		span.End()
		return Mutation{}, ErrClosed
	}
	rec.Seq = s.seq + 1
	if rec.Op == "insert" {
		d := s.datasets[rec.Dataset]
		if d == nil {
			s.mu.Unlock()
			span.End()
			return Mutation{}, fmt.Errorf("%w: %q", ErrUnknownDataset, rec.Dataset)
		}
		rec.FirstID = d.nextID
	}
	payload, err := json.Marshal(rec)
	if err != nil {
		s.mu.Unlock()
		span.End()
		return Mutation{}, err
	}
	if err := s.apply(rec); err != nil {
		s.mu.Unlock()
		span.End()
		return Mutation{}, err
	}
	s.seq = rec.Seq
	off, gen, err := s.wal.append(payload)
	if err != nil {
		// The in-memory state is now ahead of a log that may hold a
		// torn frame. If a later append succeeded after the tear,
		// replay would stop at the torn frame and silently lose the
		// later — acknowledged — op; and with this op's record missing
		// entirely, later records referencing its effects would fail
		// replay. Poison the store instead: every further op fails
		// with ErrClosed, so the durable prefix stays exactly what
		// recovery will reconstruct. ErrClosed is wrapped in here too:
		// an I/O failure is a server-side fault (disk full, dead disk),
		// and matching the sentinel keeps serving layers from mapping
		// it onto an input-validation status.
		s.closed = true
		s.mu.Unlock()
		span.End()
		return Mutation{}, fmt.Errorf("store: wal append failed (store now refuses writes): %w; %w", err, ErrClosed)
	}
	m := Mutation{Dataset: rec.Dataset, Version: rec.Seq}
	if d := s.datasets[rec.Dataset]; d != nil {
		m.N = len(d.points)
	}
	if rec.Op == "insert" {
		m.IDs = make([]uint64, len(rec.Points))
		for i := range rec.Points {
			m.IDs[i] = rec.FirstID + uint64(i)
		}
	}
	s.mu.Unlock()
	span.End()
	// waitSync runs outside s.mu (group commit), so a concurrent
	// Compact may truncate the log before this record's fsync; the
	// (off, gen) pair lets the WAL resolve that race — see waitSync.
	span = obs.LeafSpan(ctx, "fsync.wait")
	defer span.End()
	if err := s.wal.waitSync(off, gen); err != nil {
		// A failed fsync is sticky in the WAL; close the store too so
		// in-memory state stops drifting ahead of the durable prefix.
		// Wrapping ErrClosed marks the failure as server-side for the
		// serving layers (503, not an input-validation 4xx).
		s.mu.Lock()
		s.closed = true
		s.mu.Unlock()
		return Mutation{}, fmt.Errorf("store: commit durability unknown (store now refuses writes): %w; %w", err, ErrClosed)
	}
	return m, nil
}

// CreateDataset creates an empty dataset of the given kind ("disks" or
// "discrete"). ctx carries the caller's trace (see commit); it does
// not cancel the commit — an op that reached the WAL is durable
// regardless of the caller's fate.
func (s *Store) CreateDataset(ctx context.Context, name, kind string) (Mutation, error) {
	if !nameRE.MatchString(name) {
		return Mutation{}, fmt.Errorf("store: invalid dataset name %q", name)
	}
	if kind != KindDisks && kind != KindDiscrete {
		return Mutation{}, fmt.Errorf("store: unknown kind %q", kind)
	}
	return s.commit(ctx, record{Op: "create", Dataset: name, Kind: kind})
}

// DropDataset removes a dataset and all its points.
func (s *Store) DropDataset(ctx context.Context, name string) (Mutation, error) {
	return s.commit(ctx, record{Op: "drop", Dataset: name})
}

// InsertPoints appends points to a dataset, assigning consecutive
// stable ids (returned in Mutation.IDs, in input order). All points
// are validated against the dataset's kind before anything is logged;
// the insert is all-or-nothing.
func (s *Store) InsertPoints(ctx context.Context, name string, pts []Point) (Mutation, error) {
	if len(pts) == 0 {
		return Mutation{}, errors.New("store: no points to insert")
	}
	s.mu.Lock()
	d, ok := s.datasets[name]
	if !ok {
		s.mu.Unlock()
		return Mutation{}, fmt.Errorf("%w: %q", ErrUnknownDataset, name)
	}
	kind := d.kind
	s.mu.Unlock()
	for i, p := range pts {
		if err := p.validate(kind); err != nil {
			return Mutation{}, fmt.Errorf("point %d: %w", i, err)
		}
	}
	// Kind rides along so apply (and replay) can re-check it against
	// the dataset the op actually lands on.
	return s.commit(ctx, record{Op: "insert", Dataset: name, Kind: kind, Points: pts})
}

// DeletePoint removes one point by id.
func (s *Store) DeletePoint(ctx context.Context, name string, id uint64) (Mutation, error) {
	return s.commit(ctx, record{Op: "delete", Dataset: name, ID: id})
}

// Compact folds the whole state into a fresh snapshot and truncates
// the WAL. Mutations block for the duration. ctx carries the caller's
// trace; the snapshot write itself is never cancelled mid-file.
func (s *Store) Compact(ctx context.Context) error {
	span := obs.LeafSpan(ctx, "snapshot.write")
	defer span.End()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	start := time.Now()
	defer func() { s.metrics.snapshotDur.ObserveDuration(time.Since(start)) }()
	doc := snapshotDoc{LastSeq: s.seq}
	names := make([]string, 0, len(s.datasets))
	for name := range s.datasets {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		d := s.datasets[name]
		doc.Datasets = append(doc.Datasets, snapshotDataset{
			Name: name, Kind: d.kind, NextID: d.nextID, Version: d.version,
			Points: d.points,
		})
	}
	if err := writeSnapshot(s.dir, doc); err != nil {
		return err
	}
	return s.wal.truncateTo(0)
}

// Close flushes nothing (every acknowledged op is already durable) and
// releases the WAL file. Further ops fail with ErrClosed.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	return s.wal.close()
}

// Names returns the dataset names in sorted order.
func (s *Store) Names() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.datasets))
	for name := range s.datasets {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Infos lists every dataset, sorted by name. The listing alone is
// consistent, but pairing it with per-name reads is not atomic under
// concurrent mutations — use View or PointsView to read one dataset's
// info and points together.
func (s *Store) Infos() []DatasetInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]DatasetInfo, 0, len(s.datasets))
	for name, d := range s.datasets {
		out = append(out, DatasetInfo{Name: name, Kind: d.kind, N: len(d.points), Version: d.version})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Dataset returns one dataset's info.
func (s *Store) Dataset(name string) (DatasetInfo, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.datasets[name]
	if !ok {
		return DatasetInfo{}, fmt.Errorf("%w: %q", ErrUnknownDataset, name)
	}
	return DatasetInfo{Name: name, Kind: d.kind, N: len(d.points), Version: d.version}, nil
}

// View returns one dataset's info and its current point set (nil when
// empty), built afresh on each call, under a single lock acquisition:
// the (kind, set, version) triple can never mix two mutations' states.
// Callers that read info and set in two separate calls would race
// concurrent drops and drop+recreates — a recreate under another kind
// between the calls could pair the old kind with the new set.
func (s *Store) View(name string) (DatasetInfo, pnn.UncertainSet, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.datasets[name]
	if !ok {
		return DatasetInfo{}, nil, fmt.Errorf("%w: %q", ErrUnknownDataset, name)
	}
	set, err := buildSet(d.kind, d.points)
	if err != nil {
		return DatasetInfo{}, nil, err
	}
	return DatasetInfo{Name: name, Kind: d.kind, N: len(d.points), Version: d.version}, set, nil
}

// OpsSince returns one dataset's info plus the committed mutations
// with sequence numbers strictly greater than version, in commit
// order, under a single lock acquisition. ok reports whether the
// retained history still reaches back to version: when it does not —
// the reader stalled past the tail cap, or the dataset was dropped and
// recreated (a fresh incarnation's history starts at its create op) —
// ok is false and the caller must fall back to a full PointsView read.
// The returned ops' slices are shared immutable history; callers must
// not mutate them.
func (s *Store) OpsSince(name string, version uint64) (DatasetInfo, []DeltaOp, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.datasets[name]
	if !ok {
		return DatasetInfo{}, nil, false, fmt.Errorf("%w: %q", ErrUnknownDataset, name)
	}
	info := DatasetInfo{Name: name, Kind: d.kind, N: len(d.points), Version: d.version}
	if version < d.tailBase {
		return info, nil, false, nil
	}
	i := sort.Search(len(d.tail), func(i int) bool { return d.tail[i].Seq > version })
	// Copy the op headers: trims shift d.tail in place under s.mu, so a
	// subslice handed out here would be rewritten underneath the caller.
	ops := make([]DeltaOp, len(d.tail)-i)
	copy(ops, d.tail[i:])
	return info, ops, true, nil
}

// PointsView returns one dataset's info together with its live points
// and their stable ids (parallel slices, insertion order) under a
// single lock acquisition — the atomic read a dynamic engine build
// needs, with the same never-mixes-two-mutations guarantee as View.
func (s *Store) PointsView(name string) (DatasetInfo, []uint64, []Point, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.datasets[name]
	if !ok {
		return DatasetInfo{}, nil, nil, fmt.Errorf("%w: %q", ErrUnknownDataset, name)
	}
	ids := make([]uint64, len(d.points))
	pts := make([]Point, len(d.points))
	for i, sp := range d.points {
		ids[i] = sp.ID
		pts[i] = sp.P
	}
	return DatasetInfo{Name: name, Kind: d.kind, N: len(d.points), Version: d.version}, ids, pts, nil
}

// Points returns the dataset's live points with their ids, in
// insertion order — result index i of a query over View's set
// corresponds to Points[i].
func (s *Store) Points(name string) ([]uint64, []Point, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.datasets[name]
	if !ok {
		return nil, nil, fmt.Errorf("%w: %q", ErrUnknownDataset, name)
	}
	ids := make([]uint64, len(d.points))
	pts := make([]Point, len(d.points))
	for i, sp := range d.points {
		ids[i] = sp.ID
		pts[i] = sp.P
	}
	return ids, pts, nil
}
