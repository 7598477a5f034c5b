package store

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"pnn"
	"pnn/internal/datafile"
)

func disk(x, y, r float64) Point {
	return Point{Disk: &datafile.DiskJSON{X: x, Y: y, R: r}}
}

func discrete(xs, ys []float64) Point {
	return Point{Discrete: &datafile.DiscreteJSON{X: xs, Y: ys}}
}

func mustOpen(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)

	if _, err := s.CreateDataset(context.Background(), "fleet", KindDiscrete); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateDataset(context.Background(), "fleet", KindDiscrete); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate create: %v", err)
	}
	if _, err := s.CreateDataset(context.Background(), "bad name!", KindDisks); err == nil {
		t.Fatal("invalid name accepted")
	}
	if _, err := s.CreateDataset(context.Background(), "x", "squares"); err == nil {
		t.Fatal("unknown kind accepted")
	}

	m, err := s.InsertPoints(context.Background(), "fleet", []Point{
		discrete([]float64{1, 2}, []float64{3, 4}),
		discrete([]float64{5}, []float64{6}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.IDs) != 2 || m.IDs[0] != 1 || m.IDs[1] != 2 || m.N != 2 {
		t.Fatalf("insert ack = %+v", m)
	}
	if _, err := s.InsertPoints(context.Background(), "fleet", []Point{disk(0, 0, 1)}); !errors.Is(err, ErrKindMismatch) {
		t.Fatalf("kind mismatch: %v", err)
	}
	if _, err := s.InsertPoints(context.Background(), "nope", []Point{disk(0, 0, 1)}); !errors.Is(err, ErrUnknownDataset) {
		t.Fatalf("unknown dataset: %v", err)
	}

	info, set, err := s.View("fleet")
	if err != nil {
		t.Fatal(err)
	}
	v1 := info.Version
	if set.Len() != 2 {
		t.Fatalf("set len %d", set.Len())
	}
	if _, err := pnn.New(set); err != nil {
		t.Fatal(err)
	}

	m2, err := s.DeletePoint(context.Background(), "fleet", m.IDs[0])
	if err != nil {
		t.Fatal(err)
	}
	if m2.Version <= v1 || m2.N != 1 {
		t.Fatalf("delete ack = %+v (previous version %d)", m2, v1)
	}
	if _, err := s.DeletePoint(context.Background(), "fleet", 99); !errors.Is(err, ErrUnknownPoint) {
		t.Fatalf("unknown point: %v", err)
	}

	// Versions are monotone per dataset and bump on every mutation.
	infos := s.Infos()
	if len(infos) != 1 || infos[0].Name != "fleet" || infos[0].N != 1 || infos[0].Version != m2.Version {
		t.Fatalf("infos = %+v", infos)
	}

	// Reopen and check the state survived.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, dir)
	defer s2.Close()
	ids, pts, err := s2.Points("fleet")
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || ids[0] != 2 || pts[0].Discrete == nil || pts[0].Discrete.X[0] != 5 {
		t.Fatalf("recovered points = %v %v", ids, pts)
	}
	di, err := s2.Dataset("fleet")
	if err != nil {
		t.Fatal(err)
	}
	if di.Version != m2.Version {
		t.Fatalf("recovered version %d, want %d", di.Version, m2.Version)
	}
	// Ids keep advancing after recovery (no reuse).
	m3, err := s2.InsertPoints(context.Background(), "fleet", []Point{discrete([]float64{9}, []float64{9})})
	if err != nil {
		t.Fatal(err)
	}
	if m3.IDs[0] != 3 {
		t.Fatalf("post-recovery id = %d, want 3", m3.IDs[0])
	}
}

func TestCompactAndRecover(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	if _, err := s.CreateDataset(context.Background(), "a", KindDisks); err != nil {
		t.Fatal(err)
	}
	if _, err := s.InsertPoints(context.Background(), "a", []Point{disk(1, 2, 3), disk(4, 5, 6)}); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	// WAL is empty after compaction; ops keep flowing.
	if fi, err := os.Stat(filepath.Join(dir, walFile)); err != nil || fi.Size() != 0 {
		t.Fatalf("wal after compact: %v, %v", fi, err)
	}
	m, err := s.InsertPoints(context.Background(), "a", []Point{disk(7, 8, 9)})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2 := mustOpen(t, dir)
	defer s2.Close()
	ids, _, err := s2.Points("a")
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 3 {
		t.Fatalf("recovered %d points, want 3", len(ids))
	}
	di, _ := s2.Dataset("a")
	if di.Version != m.Version {
		t.Fatalf("version %d, want %d", di.Version, m.Version)
	}
}

func TestSnapshotCorruption(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	if _, err := s.CreateDataset(context.Background(), "a", KindDisks); err != nil {
		t.Fatal(err)
	}
	if _, err := s.InsertPoints(context.Background(), "a", []Point{disk(1, 2, 3)}); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	s.Close()

	path := filepath.Join(dir, snapshotFile)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte: Open must refuse with a clear error, not
	// silently serve garbage.
	bad := append([]byte(nil), raw...)
	bad[len(bad)-1] ^= 0xff
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("corrupt snapshot opened: %v", err)
	}
	// Bad magic likewise.
	bad = append([]byte(nil), raw...)
	bad[0] = 'X'
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("bad-magic snapshot opened: %v", err)
	}
}

// storeState captures the observable state for prefix comparisons.
type storeState struct {
	Infos  []DatasetInfo
	Points map[string][]uint64
}

func captureState(s *Store) storeState {
	st := storeState{Infos: s.Infos(), Points: map[string][]uint64{}}
	for _, in := range st.Infos {
		ids, _, _ := s.Points(in.Name)
		st.Points[in.Name] = ids
	}
	return st
}

// TestTornWriteRecovery is the crash-recovery property test: after N
// random ops, truncating the WAL at every byte offset of the final
// record (and at each earlier record boundary) and reopening must
// recover exactly the longest durable prefix of the op sequence —
// never garbage, never a lost acknowledged prefix.
func TestTornWriteRecovery(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	rng := rand.New(rand.NewSource(3))

	// Apply a random op sequence, capturing state and WAL size after
	// every op.
	type step struct {
		walSize int64
		state   storeState
	}
	var steps []step
	walPath := filepath.Join(dir, walFile)
	record := func() {
		fi, err := os.Stat(walPath)
		if err != nil {
			t.Fatal(err)
		}
		steps = append(steps, step{walSize: fi.Size(), state: captureState(s)})
	}
	record() // state after zero ops
	datasets := []string{"a", "b"}
	var liveIDs []uint64
	for op := 0; op < 30; op++ {
		name := datasets[rng.Intn(len(datasets))]
		switch rng.Intn(10) {
		case 0:
			if _, err := s.CreateDataset(context.Background(), fmt.Sprintf("d%d", op), KindDisks); err != nil {
				t.Fatal(err)
			}
		default:
			if _, err := s.Dataset(name); err != nil {
				if _, err := s.CreateDataset(context.Background(), name, KindDisks); err != nil {
					t.Fatal(err)
				}
				record()
			}
			if len(liveIDs) > 0 && rng.Intn(4) == 0 {
				if _, err := s.DeletePoint(context.Background(), "a", liveIDs[0]); err == nil {
					liveIDs = liveIDs[1:]
				}
			} else {
				m, err := s.InsertPoints(context.Background(), name, []Point{disk(rng.Float64(), rng.Float64(), rng.Float64())})
				if err != nil {
					t.Fatal(err)
				}
				if name == "a" {
					liveIDs = append(liveIDs, m.IDs...)
				}
			}
		}
		record()
	}
	s.Close()
	full, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}

	// stateAt returns the expected recovered state for a WAL truncated
	// to size b: the last step whose walSize ≤ b.
	stateAt := func(b int64) storeState {
		best := steps[0].state
		for _, st := range steps {
			if st.walSize <= b {
				best = st.state
			}
		}
		return best
	}

	// Truncate at every byte offset of the final record, plus every
	// earlier record boundary.
	var offsets []int64
	lastBoundary := steps[len(steps)-2].walSize
	for _, st := range steps[:len(steps)-1] {
		offsets = append(offsets, st.walSize)
	}
	for b := lastBoundary; b <= int64(len(full)); b++ {
		offsets = append(offsets, b)
	}

	crashDir := t.TempDir()
	for _, off := range offsets {
		if err := os.RemoveAll(crashDir); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(crashDir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(crashDir, walFile), full[:off], 0o644); err != nil {
			t.Fatal(err)
		}
		rs, err := Open(crashDir)
		if err != nil {
			t.Fatalf("truncated at %d: open: %v", off, err)
		}
		got := captureState(rs)
		want := stateAt(off)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("truncated at %d: recovered %+v, want %+v", off, got, want)
		}
		// The reopened store accepts writes (the torn tail was cleanly
		// truncated).
		if _, err := rs.CreateDataset(context.Background(), "post", KindDiscrete); err != nil {
			t.Fatalf("truncated at %d: post-recovery write: %v", off, err)
		}
		rs.Close()
	}
}

// TestWALFailurePoisonsStore pins the error identity of a WAL I/O
// failure: the failing commit (and everything after it) must match
// ErrClosed, so serving layers answer a server-side 5xx instead of
// mistaking a dead disk for input validation.
func TestWALFailurePoisonsStore(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	if _, err := s.CreateDataset(context.Background(), "a", KindDisks); err != nil {
		t.Fatal(err)
	}
	s.wal.f.Close() // the disk vanishes under the log
	if _, err := s.InsertPoints(context.Background(), "a", []Point{disk(0, 0, 1)}); !errors.Is(err, ErrClosed) {
		t.Fatalf("commit after wal failure: %v, want ErrClosed in the chain", err)
	}
	if _, err := s.CreateDataset(context.Background(), "b", KindDiscrete); !errors.Is(err, ErrClosed) {
		t.Fatalf("op on poisoned store: %v, want ErrClosed", err)
	}
}

// TestWALTruncateEpoch pins the epoch semantics of truncateTo: an
// offset appended before a truncation belongs to the old file epoch,
// so waiting on it must resolve immediately (the record is durable via
// the compaction snapshot) instead of spinning against a reset synced
// watermark, and the stale offset must never leak into synced where it
// would let later commits skip their fsync.
func TestWALTruncateEpoch(t *testing.T) {
	w, _, err := openWAL(filepath.Join(t.TempDir(), walFile))
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	off, gen, err := w.append([]byte("pre-truncation record"))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.truncateTo(0); err != nil {
		t.Fatal(err)
	}
	// The old-epoch waiter returns promptly (this hung forever before
	// waitSync was epoch-aware).
	if err := w.waitSync(off, gen); err != nil {
		t.Fatal(err)
	}
	w.smu.Lock()
	synced := w.synced
	w.smu.Unlock()
	if synced != 0 {
		t.Fatalf("synced = %d after truncateTo(0), want 0", synced)
	}
	// The new epoch starts clean: a fresh append gets the bumped gen and
	// still has to earn its own fsync.
	off2, gen2, err := w.append([]byte("post-truncation record"))
	if err != nil {
		t.Fatal(err)
	}
	if gen2 != gen+1 {
		t.Fatalf("gen after truncate = %d, want %d", gen2, gen+1)
	}
	if err := w.waitSync(off2, gen2); err != nil {
		t.Fatal(err)
	}
	w.smu.Lock()
	synced = w.synced
	w.smu.Unlock()
	if synced != off2 {
		t.Fatalf("synced = %d after new-epoch sync, want %d", synced, off2)
	}
}

// TestCompactConcurrentWithWrites races Compact's log truncation
// against commits sitting between append and waitSync (commit releases
// the store lock before waiting on the fsync). Every acknowledged
// insert must survive a reopen, and no waiter may hang on a watermark
// that compaction reset underneath it.
func TestCompactConcurrentWithWrites(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	if _, err := s.CreateDataset(context.Background(), "a", KindDisks); err != nil {
		t.Fatal(err)
	}
	const writers, each = 4, 40
	errs := make(chan error, writers+1)
	stop := make(chan struct{})
	var compactWG sync.WaitGroup
	compactWG.Add(1)
	go func() {
		defer compactWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := s.Compact(context.Background()); err != nil {
				errs <- fmt.Errorf("compact: %w", err)
				return
			}
		}
	}()
	acked := make([][]uint64, writers)
	var writeWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writeWG.Add(1)
		go func(w int) {
			defer writeWG.Done()
			for i := 0; i < each; i++ {
				m, err := s.InsertPoints(context.Background(), "a", []Point{disk(float64(w), float64(i), 1)})
				if err != nil {
					errs <- err
					return
				}
				acked[w] = append(acked[w], m.IDs...)
			}
		}(w)
	}
	writeWG.Wait()
	close(stop)
	compactWG.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir)
	defer s2.Close()
	ids, _, err := s2.Points("a")
	if err != nil {
		t.Fatal(err)
	}
	recovered := make(map[uint64]bool, len(ids))
	for _, id := range ids {
		recovered[id] = true
	}
	for w, batch := range acked {
		for _, id := range batch {
			if !recovered[id] {
				t.Fatalf("acknowledged id %d (writer %d) lost across compaction + reopen", id, w)
			}
		}
	}
	if len(ids) != writers*each {
		t.Fatalf("recovered %d points, want %d", len(ids), writers*each)
	}
}

func TestGroupCommitConcurrency(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	defer s.Close()
	if _, err := s.CreateDataset(context.Background(), "a", KindDisks); err != nil {
		t.Fatal(err)
	}
	const writers, each = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := s.InsertPoints(context.Background(), "a", []Point{disk(float64(w), float64(i), 1)}); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	di, err := s.Dataset("a")
	if err != nil {
		t.Fatal(err)
	}
	if di.N != writers*each {
		t.Fatalf("N = %d, want %d", di.N, writers*each)
	}
	// Ids are unique.
	ids, _, _ := s.Points("a")
	seen := map[uint64]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("duplicate id %d", id)
		}
		seen[id] = true
	}
}
