package engine

import (
	"errors"
	"testing"

	"pnn"
	"pnn/internal/datafile"
	"pnn/store"
)

// storedAt is a one-location stored discrete point at (x, y).
func storedAt(x, y float64) store.Point {
	return store.Point{Discrete: &datafile.DiscreteJSON{X: []float64{x}, Y: []float64{y}}}
}

func buildDynamic(t *testing.T, ids ...uint64) *Dynamic {
	t.Helper()
	pts := make([]store.Point, len(ids))
	for i, id := range ids {
		pts[i] = storedAt(float64(id), 0)
	}
	e, err := BuildDynamic(ids, pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestStaticApply(t *testing.T) {
	set, err := pnn.NewDiscreteSet([]pnn.DiscretePoint{{Locations: []pnn.Point{pnn.Pt(1, 2)}}})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := pnn.New(set)
	if err != nil {
		t.Fatal(err)
	}
	s := NewStatic(ix)
	if err := s.Apply(nil); err != nil {
		t.Fatalf("Apply(nil) = %v, want nil: an empty delta needs no rebuild", err)
	}
	err = s.Apply([]store.DeltaOp{{Seq: 2, IDs: []uint64{2}, Points: []store.Point{storedAt(3, 4)}}})
	if !errors.Is(err, ErrRebuildRequired) {
		t.Fatalf("Apply(insert) = %v, want ErrRebuildRequired", err)
	}
	if got := s.Cost(); got != (Cost{RebuiltMembers: 1}) {
		t.Fatalf("Cost = %+v, want one rebuilt member", got)
	}
}

func TestDynamicApplyUnknownDelete(t *testing.T) {
	e := buildDynamic(t, 1, 2)
	err := e.Apply([]store.DeltaOp{{Seq: 3, Deleted: 9}})
	if !errors.Is(err, ErrRebuildRequired) {
		t.Fatalf("delete of an unknown id = %v, want ErrRebuildRequired", err)
	}
	if e.Len() != 2 {
		t.Fatalf("Len = %d after a refused delete, want 2", e.Len())
	}
}

func TestDynamicApplyMalformedInsert(t *testing.T) {
	e := buildDynamic(t, 1)
	err := e.Apply([]store.DeltaOp{{Seq: 2, IDs: []uint64{2, 3}, Points: []store.Point{storedAt(2, 0)}}})
	if err == nil {
		t.Fatal("insert op with 2 ids for 1 point applied, want an error")
	}
}

func TestDynamicCost(t *testing.T) {
	e := buildDynamic(t, 1, 2)
	err := e.Apply([]store.DeltaOp{
		{Seq: 3, IDs: []uint64{3, 4}, Points: []store.Point{storedAt(3, 0), storedAt(4, 0)}},
		{Seq: 4, Deleted: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	// The build's two inserts count too: Cost is cumulative.
	if got := e.Cost(); got.Inserts != 4 || got.Deletes != 1 || got.RebuiltMembers == 0 {
		t.Fatalf("Cost = %+v, want 4 inserts, 1 delete, some rebuilt members", got)
	}
	if e.Len() != 3 {
		t.Fatalf("Len = %d, want 3", e.Len())
	}
}

func TestBuildDynamicRejectsMismatchedLengths(t *testing.T) {
	if _, err := BuildDynamic([]uint64{1, 2}, []store.Point{storedAt(1, 0)}, nil); err == nil {
		t.Fatal("BuildDynamic accepted 2 ids for 1 point")
	}
}
