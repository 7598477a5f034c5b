package pnn

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// dynHarness drives one DynamicIndex alongside a mirror of the live
// points, so a fresh static Index can be built over the survivors at
// any step.
type dynHarness struct {
	t    *testing.T
	dyn  *DynamicIndex
	opts []Option
	kind string
	// live mirrors the surviving points in insertion order.
	liveDisks []DiskPoint
	liveDiscs []DiscretePoint
	liveSqs   []SquarePoint
	ids       []PointID
}

func (h *dynHarness) insertRandom(r *rand.Rand) {
	switch h.kind {
	case "disks":
		p := DiskPoint{Support: Disk{Center: Pt(r.Float64()*40, r.Float64()*40), R: r.Float64() * 3}}
		if r.Intn(6) == 0 {
			p.Support.R = 0 // exercise the degenerate δ = Δ path
		}
		id, err := h.dyn.InsertDisk(p)
		if err != nil {
			h.t.Fatal(err)
		}
		h.liveDisks = append(h.liveDisks, p)
		h.ids = append(h.ids, id)
	case "discrete":
		k := 1 + r.Intn(3)
		p := DiscretePoint{}
		cx, cy := r.Float64()*40, r.Float64()*40
		for t := 0; t < k; t++ {
			p.Locations = append(p.Locations, Pt(cx+r.Float64()*4-2, cy+r.Float64()*4-2))
		}
		id, err := h.dyn.InsertDiscrete(p)
		if err != nil {
			h.t.Fatal(err)
		}
		h.liveDiscs = append(h.liveDiscs, p)
		h.ids = append(h.ids, id)
	case "squares":
		p := SquarePoint{Center: Pt(r.Float64()*40, r.Float64()*40), R: r.Float64() * 3}
		if r.Intn(6) == 0 {
			p.R = 0
		}
		id, err := h.dyn.InsertSquare(p)
		if err != nil {
			h.t.Fatal(err)
		}
		h.liveSqs = append(h.liveSqs, p)
		h.ids = append(h.ids, id)
	}
	checkDynInvariants(h.t, h.dyn)
}

// deleteRandom deletes a random live point and returns its id (0 when
// nothing is live).
func (h *dynHarness) deleteRandom(r *rand.Rand) PointID {
	if len(h.ids) == 0 {
		return 0
	}
	return h.deleteAt(r.Intn(len(h.ids)))
}

// deleteAt deletes the live point of rank i and returns its id.
func (h *dynHarness) deleteAt(i int) PointID {
	id := h.ids[i]
	if err := h.dyn.Delete(id); err != nil {
		h.t.Fatal(err)
	}
	h.ids = slices.Delete(h.ids, i, i+1)
	switch h.kind {
	case "disks":
		h.liveDisks = slices.Delete(h.liveDisks, i, i+1)
	case "discrete":
		h.liveDiscs = slices.Delete(h.liveDiscs, i, i+1)
	case "squares":
		h.liveSqs = slices.Delete(h.liveSqs, i, i+1)
	}
	checkDynInvariants(h.t, h.dyn)
	return id
}

// checkDynInvariants asserts the logarithmic decomposition's books. A
// level holds at most one bucket by construction (levels is indexed by
// level); beyond that: a level-ℓ bucket holds at most 2^ℓ slots in
// strictly increasing order, no slot sits in two buckets and every live
// slot in exactly one, each bucket's dead count equals its deleted
// members and no bucket is fully dead, ids strictly increase along the
// arena (slotOf binary-searches it), the dead slots stay below the live
// count (the compaction rule), and the bucket count is logarithmic.
func checkDynInvariants(t *testing.T, d *DynamicIndex) {
	t.Helper()
	d.mu.RLock()
	defer d.mu.RUnlock()
	housed := make(map[int]bool)
	buckets := 0
	for lvl, b := range d.levels {
		if b == nil {
			continue
		}
		buckets++
		if len(b.slots) > 1<<lvl {
			t.Fatalf("level-%d bucket holds %d > %d slots", lvl, len(b.slots), 1<<lvl)
		}
		dead := 0
		for i, s := range b.slots {
			if i > 0 && b.slots[i-1] >= s {
				t.Fatalf("level-%d bucket slots not strictly increasing: %v", lvl, b.slots)
			}
			if housed[s] {
				t.Fatalf("slot %d sits in two buckets", s)
			}
			housed[s] = true
			if d.items[s].dead {
				dead++
			}
		}
		if dead != b.dead {
			t.Fatalf("level-%d bucket counts %d dead, holds %d", lvl, b.dead, dead)
		}
		if dead == len(b.slots) {
			t.Fatalf("fully dead level-%d bucket retained", lvl)
		}
	}
	live := 0
	for i, it := range d.items {
		if i > 0 && d.items[i-1].id >= it.id {
			t.Fatalf("arena ids not strictly increasing at slot %d", i)
		}
		if !it.dead {
			live++
		}
	}
	if live != len(d.liveSlots) {
		t.Fatalf("arena holds %d live slots, liveSlots %d", live, len(d.liveSlots))
	}
	for _, s := range d.liveSlots {
		if d.items[s].dead || !housed[s] {
			t.Fatalf("live slot %d dead (%v) or in no bucket", s, d.items[s].dead)
		}
	}
	if garbage := len(d.items) - live; len(d.items) > 0 && garbage >= live {
		t.Fatalf("%d dead slots for %d live (compaction missed)", garbage, live)
	}
	if limit := bits.Len(uint(len(d.items))) + 1; buckets > limit {
		t.Fatalf("%d buckets for a %d-slot arena (limit %d)", buckets, len(d.items), limit)
	}
}

func (h *dynHarness) liveLen() int { return len(h.ids) }

// static builds a fresh static Index over the survivors with the same
// options the DynamicIndex was configured with.
func (h *dynHarness) static() *Index {
	var set UncertainSet
	var err error
	switch h.kind {
	case "disks":
		set, err = NewContinuousSet(slices.Clone(h.liveDisks))
	case "discrete":
		set, err = NewDiscreteSet(slices.Clone(h.liveDiscs))
	case "squares":
		set, err = NewSquareSet(slices.Clone(h.liveSqs))
	}
	if err != nil {
		h.t.Fatal(err)
	}
	ix, err := New(set, h.opts...)
	if err != nil {
		h.t.Fatal(err)
	}
	return ix
}

// compareAll asserts every query of the dynamic engine bitwise-equal to
// the fresh static engine at q. hasQuant gates the quantification
// queries (squares have none, on either engine).
func (h *dynHarness) compareAll(q Point, hasQuant bool) {
	h.t.Helper()
	st := h.static()

	gotNZ, err := h.dyn.Nonzero(q)
	if err != nil {
		h.t.Fatal(err)
	}
	wantNZ, err := st.Nonzero(q)
	if err != nil {
		h.t.Fatal(err)
	}
	if !slices.Equal(gotNZ, wantNZ) {
		h.t.Fatalf("Nonzero(%v) over %d pts: dynamic %v, static %v", q, h.liveLen(), gotNZ, wantNZ)
	}

	if !hasQuant {
		if _, err := h.dyn.Probabilities(q); err == nil {
			h.t.Fatalf("Probabilities succeeded on a quantifier-less kind")
		}
		return
	}

	gotPi, err := h.dyn.Probabilities(q)
	if err != nil {
		h.t.Fatal(err)
	}
	wantPi, err := st.Probabilities(q)
	if err != nil {
		h.t.Fatal(err)
	}
	if !slices.Equal(gotPi, wantPi) {
		h.t.Fatalf("Probabilities(%v) over %d pts:\ndynamic %v\nstatic  %v", q, h.liveLen(), gotPi, wantPi)
	}

	gotTop, err := h.dyn.TopK(q, 3)
	if err != nil {
		h.t.Fatal(err)
	}
	wantTop, err := st.TopK(q, 3)
	if err != nil {
		h.t.Fatal(err)
	}
	if !slices.Equal(gotTop, wantTop) {
		h.t.Fatalf("TopK(%v, 3): dynamic %v, static %v", q, gotTop, wantTop)
	}

	gotTh, err := h.dyn.Threshold(q, 0.2)
	if err != nil {
		h.t.Fatal(err)
	}
	wantTh, err := st.Threshold(q, 0.2)
	if err != nil {
		h.t.Fatal(err)
	}
	if !slices.Equal(gotTh.Certain, wantTh.Certain) || !slices.Equal(gotTh.Possible, wantTh.Possible) {
		h.t.Fatalf("Threshold(%v, 0.2): dynamic %+v, static %+v", q, gotTh, wantTh)
	}

	gotPos, err := h.dyn.PositiveProbabilities(q, 0)
	if err != nil {
		h.t.Fatal(err)
	}
	wantPos, err := st.PositiveProbabilities(q, 0)
	if err != nil {
		h.t.Fatal(err)
	}
	if !slices.Equal(gotPos, wantPos) {
		h.t.Fatalf("PositiveProbabilities(%v, 0): dynamic %v, static %v", q, gotPos, wantPos)
	}

	gotEI, gotED, err := h.dyn.ExpectedNN(q)
	if err != nil {
		h.t.Fatal(err)
	}
	wantEI, wantED, err := st.ExpectedNN(q)
	if err != nil {
		h.t.Fatal(err)
	}
	if gotEI != wantEI || gotED != wantED {
		h.t.Fatalf("ExpectedNN(%v): dynamic (%d, %g), static (%d, %g)", q, gotEI, gotED, wantEI, wantED)
	}
}

// TestDynamicEquivalence is the dynamization property test: after any
// generated sequence of inserts and deletes, every DynamicIndex query
// is bitwise identical to a fresh static Index built over the surviving
// points — across set kinds, NN≠0 backends, and quantifiers.
func TestDynamicEquivalence(t *testing.T) {
	// steps is the history length. The diagram rows rebuild a diagram
	// view at every compared step, so they run shorter histories.
	cases := []struct {
		name  string
		kind  string
		opts  []Option
		steps int
	}{
		{"disks/index/exact", "disks", []Option{WithIntegrationPanels(16)}, 120},
		{"disks/direct/exact", "disks", []Option{WithNonzeroBackend(BackendDirect), WithIntegrationPanels(16)}, 120},
		{"disks/diagram/exact", "disks", []Option{WithNonzeroBackend(BackendDiagram), WithIntegrationPanels(16)}, 40},
		{"disks/index/mcbudget", "disks", []Option{WithQuantifier(MonteCarloBudget(40)), WithSeed(5)}, 120},
		{"disks/index/spiral", "disks", []Option{WithQuantifier(SpiralSearch(0.1)), WithSpiralSamples(60), WithSeed(3)}, 120},
		{"discrete/index/exact", "discrete", nil, 120},
		{"discrete/direct/exact", "discrete", []Option{WithNonzeroBackend(BackendDirect)}, 120},
		{"discrete/diagram/exact", "discrete", []Option{WithNonzeroBackend(BackendDiagram)}, 40},
		{"discrete/index/mc", "discrete", []Option{WithQuantifier(MonteCarlo(0.25, 0.25)), WithSeed(9)}, 120},
		{"discrete/index/spiral", "discrete", []Option{WithQuantifier(SpiralSearch(0.1))}, 120},
		{"squares/index", "squares", nil, 120},
		{"squares/direct", "squares", []Option{WithNonzeroBackend(BackendDirect)}, 120},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(11))
			dyn, err := NewDynamic(tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			h := &dynHarness{t: t, dyn: dyn, opts: tc.opts, kind: tc.kind}
			hasQuant := tc.kind != "squares"
			steps := tc.steps
			if testing.Short() {
				steps = min(steps, 40)
			}
			for step := 0; step < steps; step++ {
				if h.liveLen() == 0 || r.Intn(3) != 0 {
					h.insertRandom(r)
				} else {
					h.deleteRandom(r)
				}
				if h.liveLen() == 0 {
					continue
				}
				// Compare a couple of query points per step: one random,
				// one at a live point's center (ties and degeneracies).
				if step%4 == 0 {
					q := Pt(r.Float64()*40, r.Float64()*40)
					h.compareAll(q, hasQuant)
					h.compareAll(h.someCenter(r), hasQuant)
				}
			}
			if h.liveLen() != dyn.Len() {
				t.Fatalf("Len() = %d, want %d", dyn.Len(), h.liveLen())
			}
		})
	}
}

// someCenter returns the center/first location of a random live point —
// query locations where δ, Δ ties are most likely.
func (h *dynHarness) someCenter(r *rand.Rand) Point {
	i := r.Intn(h.liveLen())
	switch h.kind {
	case "disks":
		return h.liveDisks[i].Support.Center
	case "discrete":
		return h.liveDiscs[i].Locations[0]
	default:
		return h.liveSqs[i].Center
	}
}

// TestDynamicConcurrentReads queries a discrete DynamicIndex while
// another goroutine inserts and deletes: half the readers call TopK,
// which answers through the view, and half Nonzero, which locates in the
// buckets (or, under the diagram backend, answers through the view and
// races its rebuilds). Views share the live arrays with the writes that
// follow them, and a locate reads the dead flags, levels and bucket
// slots that Delete and compaction rewrite, so under -race this checks
// that no write touches what a read reads; every answer must equal a
// static Index over some state of the write sequence.
func TestDynamicConcurrentReads(t *testing.T) {
	for _, tc := range []struct {
		name   string
		opts   []Option
		writes int
	}{
		{"index", nil, 80},
		{"diagram", []Option{WithNonzeroBackend(BackendDiagram)}, 40},
	} {
		t.Run(tc.name, func(t *testing.T) { concurrentReads(t, tc.opts, tc.writes) })
	}
}

func concurrentReads(t *testing.T, opts []Option, writes int) {
	type op struct {
		insert DiscretePoint
		del    PointID // 0 for an insert
	}
	// Plan the writes sequentially and collect every state's answers.
	r := rand.New(rand.NewSource(5))
	plan, err := NewDynamic(opts...)
	if err != nil {
		t.Fatal(err)
	}
	h := &dynHarness{t: t, dyn: plan, opts: opts, kind: "discrete"}
	q := Pt(20, 20)
	wantTop, wantNZ := map[string]bool{}, map[string]bool{}
	var ops []op
	for step := 0; step < writes; step++ {
		if h.liveLen() < 10 || r.Intn(3) != 0 {
			h.insertRandom(r)
			ops = append(ops, op{insert: h.liveDiscs[len(h.liveDiscs)-1]})
		} else {
			ops = append(ops, op{del: h.deleteRandom(r)})
		}
		st := h.static()
		top, err := st.TopK(q, 64)
		if err != nil {
			t.Fatal(err)
		}
		wantTop[fmt.Sprint(top)] = true
		nz, err := st.Nonzero(q)
		if err != nil {
			t.Fatal(err)
		}
		wantNZ[fmt.Sprint(nz)] = true
	}

	dyn, err := NewDynamic(opts...)
	if err != nil {
		t.Fatal(err)
	}
	apply := func(o op) {
		if o.del != 0 {
			if err := dyn.Delete(o.del); err != nil {
				t.Error(err)
			}
		} else if _, err := dyn.InsertDiscrete(o.insert); err != nil {
			t.Error(err)
		}
	}
	for _, o := range ops[:10] {
		apply(o)
	}
	readers := []struct {
		name string
		want map[string]bool
		read func() (any, error)
	}{
		{"TopK", wantTop, func() (any, error) { return dyn.TopK(q, 64) }},
		{"Nonzero", wantNZ, func() (any, error) { return dyn.Nonzero(q) }},
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		rd := readers[g%len(readers)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				got, err := rd.read()
				if err != nil {
					t.Error(err)
					return
				}
				if !rd.want[fmt.Sprint(got)] {
					t.Errorf("%s %v matches no state of the write sequence", rd.name, got)
					return
				}
			}
		}()
	}
	for _, o := range ops[10:] {
		apply(o)
	}
	close(done)
	wg.Wait()
}

func TestDynamicDeleteChurn(t *testing.T) {
	// Heavy insert/delete churn with interleaved queries: memory must
	// stay bounded (compaction) and answers exact throughout.
	r := rand.New(rand.NewSource(2))
	dyn, err := NewDynamic()
	if err != nil {
		t.Fatal(err)
	}
	h := &dynHarness{t: t, dyn: dyn, opts: nil, kind: "discrete"}
	for i := 0; i < 20; i++ {
		h.insertRandom(r)
	}
	for round := 0; round < 50; round++ {
		h.deleteRandom(r)
		h.insertRandom(r)
		if round%10 == 0 {
			h.compareAll(Pt(r.Float64()*40, r.Float64()*40), true)
		}
	}
	// The arena must not grow unboundedly under churn: 20 live points
	// and 50 insert/delete pairs must compact down well below the 70
	// total insertions.
	if n := len(dyn.items); n > 3*dyn.Len()+16 {
		t.Fatalf("arena holds %d items for %d live points (compaction broken)", n, dyn.Len())
	}
}

func TestDynamicEmptyAndErrors(t *testing.T) {
	diag, err := NewDynamic(WithNonzeroBackend(BackendDiagram))
	if err != nil {
		t.Fatal(err)
	}
	if nz, err := diag.Nonzero(Pt(0, 0)); err != nil || nz == nil || len(nz) != 0 {
		t.Fatalf("empty diagram Nonzero = %#v, %v", nz, err)
	}
	if got := diag.Stats().ViewRebuilds; got != 0 {
		t.Fatalf("empty diagram Nonzero built %d views", got)
	}
	if _, err := diag.InsertSquare(SquarePoint{Center: Pt(0, 0), R: 1}); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("square insert under BackendDiagram: %v, want ErrUnsupported", err)
	}
	if _, err := NewDynamic(WithRandSource(rand.NewSource(1))); err == nil {
		t.Fatal("WithRandSource accepted")
	}
	for _, q := range []Quantifier{MonteCarloBudget(0), MonteCarlo(0, 0.1), MonteCarlo(0.1, math.NaN()), SpiralSearch(-1)} {
		if _, err := NewDynamic(WithQuantifier(q)); !errors.Is(err, ErrInvalidParam) {
			t.Fatalf("NewDynamic(%+v) err = %v, want ErrInvalidParam", q, err)
		}
	}
	for _, o := range []Option{WithIntegrationPanels(0), WithIntegrationPanels(-5), WithSpiralSamples(0), WithSpiralSamples(-5)} {
		if _, err := NewDynamic(o); !errors.Is(err, ErrInvalidParam) {
			t.Fatalf("NewDynamic with a non-positive count: err = %v, want ErrInvalidParam", err)
		}
	}

	d, err := NewDynamic()
	if err != nil {
		t.Fatal(err)
	}
	if nz, err := d.Nonzero(Pt(0, 0)); err != nil || len(nz) != 0 {
		t.Fatalf("empty Nonzero = %v, %v", nz, err)
	}
	if pi, err := d.Probabilities(Pt(0, 0)); err != nil || len(pi) != 0 {
		t.Fatalf("empty Probabilities = %v, %v", pi, err)
	}
	if _, err := d.Threshold(Pt(0, 0), math.NaN()); err == nil {
		t.Fatal("NaN tau accepted on empty index")
	}
	if _, err := d.PositiveProbabilities(Pt(0, 0), math.NaN()); !errors.Is(err, ErrInvalidParam) {
		t.Fatalf("NaN eps on empty index: %v, want ErrInvalidParam", err)
	}
	if i, dist, err := d.ExpectedNN(Pt(0, 0)); err != nil || i != -1 || dist != 0 {
		t.Fatalf("empty ExpectedNN = (%d, %g, %v)", i, dist, err)
	}
	if err := d.Delete(7); err == nil {
		t.Fatal("delete of unknown id accepted")
	}

	id, err := d.InsertDisk(DiskPoint{Support: Disk{Center: Pt(1, 2), R: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.InsertDiscrete(DiscretePoint{Locations: []Point{Pt(0, 0)}}); err == nil {
		t.Fatal("kind mix accepted")
	}
	if _, err := d.InsertDisk(DiskPoint{Support: Disk{Center: Pt(0, 0), R: -1}}); err == nil {
		t.Fatal("negative radius accepted")
	}
	nan, inf := math.NaN(), math.Inf(1)
	for _, p := range []DiskPoint{
		{Support: Disk{Center: Pt(nan, 0), R: 1}},
		{Support: Disk{Center: Pt(0, inf), R: 1}},
		{Support: Disk{R: nan}},
		{Support: Disk{R: inf}},
		{Support: Disk{R: 1}, Density: TruncatedGaussian, Sigma: nan},
	} {
		if _, err := d.InsertDisk(p); err == nil {
			t.Fatalf("non-finite disk %+v accepted", p)
		}
	}
	if err := d.Delete(id); err != nil {
		t.Fatal(err)
	}
	if err := d.Delete(id); err == nil {
		t.Fatal("double delete accepted")
	}
	if d.Len() != 0 {
		t.Fatalf("Len() = %d", d.Len())
	}

	sq, err := NewDynamic(WithQuantifier(SpiralSearch(0.1)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sq.InsertSquare(SquarePoint{Center: Pt(0, 0), R: 1}); err == nil {
		t.Fatal("quantifier accepted for L∞ squares")
	}

	sqs, err := NewDynamic()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []SquarePoint{{Center: Pt(nan, 0), R: 1}, {Center: Pt(0, -inf), R: 1}, {R: nan}, {R: inf}} {
		if _, err := sqs.InsertSquare(p); err == nil {
			t.Fatalf("non-finite square %+v accepted", p)
		}
	}
	discs, err := NewDynamic()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []DiscretePoint{
		{},
		{Locations: []Point{Pt(nan, 0)}},
		{Locations: []Point{Pt(0, inf)}},
		{Locations: []Point{Pt(0, 0), Pt(1, 1)}, Weights: []float64{nan, 1}},
	} {
		if _, err := discs.InsertDiscrete(p); err == nil {
			t.Fatalf("invalid discrete point %+v accepted", p)
		}
	}
	if discs.Len() != 0 || sqs.Len() != 0 {
		t.Fatalf("rejected inserts left points behind: %d, %d", discs.Len(), sqs.Len())
	}
}

func TestDynamicIDsAndRanks(t *testing.T) {
	d, err := NewDynamic()
	if err != nil {
		t.Fatal(err)
	}
	var ids []PointID
	for i := 0; i < 10; i++ {
		id, err := d.InsertDiscrete(DiscretePoint{Locations: []Point{Pt(float64(i), 0)}})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := d.Delete(ids[3]); err != nil {
		t.Fatal(err)
	}
	if err := d.Delete(ids[7]); err != nil {
		t.Fatal(err)
	}
	want := []PointID{ids[0], ids[1], ids[2], ids[4], ids[5], ids[6], ids[8], ids[9]}
	if got := d.IDs(); !slices.Equal(got, want) {
		t.Fatalf("IDs() = %v, want %v", got, want)
	}
	if r, ok := d.RankOf(ids[4]); !ok || r != 3 {
		t.Fatalf("RankOf(ids[4]) = (%d, %v), want (3, true)", r, ok)
	}
	if _, ok := d.RankOf(ids[3]); ok {
		t.Fatal("RankOf of a deleted id succeeded")
	}
	// The rank answering queries must agree: a query at ids[4]'s sole
	// location must rank it first.
	top, err := d.TopK(Pt(4, 0), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 1 || top[0].Index != 3 {
		t.Fatalf("TopK at deleted-shifted rank = %v, want index 3", top)
	}
}

// TestDynamicViewRebuildCounts pins the view's rebuild rule for each
// quantifier that reads through it: a run of writes followed by
// quantification reads builds exactly one view, a repeated read builds
// none, and Nonzero (answered from the buckets) never builds one. Under
// the diagram backend Nonzero answers from the view, so it builds the
// round's one view and the quantification reads after it reuse it.
func TestDynamicViewRebuildCounts(t *testing.T) {
	for _, tc := range []struct {
		name    string
		quant   Quantifier
		backend NonzeroBackend
	}{
		{"exact", Exact(), BackendIndex},
		{"spiral", SpiralSearch(0.05), BackendIndex},
		{"mcbudget", MonteCarloBudget(200), BackendIndex},
		{"diagram", Exact(), BackendDiagram},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d, err := NewDynamic(WithQuantifier(tc.quant), WithNonzeroBackend(tc.backend))
			if err != nil {
				t.Fatal(err)
			}
			rebuilds := func() uint64 { return d.Stats().ViewRebuilds }
			q := Pt(20, 20)
			// An empty index answers without a view.
			if _, err := d.Probabilities(q); err != nil {
				t.Fatal(err)
			}
			if got := rebuilds(); got != 0 {
				t.Fatalf("empty index: %d view rebuilds, want 0", got)
			}
			r := rand.New(rand.NewSource(7))
			h := &dynHarness{t: t, dyn: d, kind: "discrete"}
			reads := []func() error{
				func() error { _, err := d.Probabilities(q); return err },
				func() error { _, err := d.TopK(q, 3); return err },
				func() error { _, err := d.Threshold(q, 0.2); return err },
				func() error { _, _, err := d.ExpectedNN(q); return err },
			}
			var want uint64
			for round := 0; round < 4; round++ {
				for i := 0; i < 5; i++ {
					h.insertRandom(r)
				}
				if round > 0 {
					h.deleteRandom(r)
				}
				if got := rebuilds(); got != want {
					t.Fatalf("round %d: writes alone built views (%d, want %d)", round, got, want)
				}
				diagram := tc.backend == BackendDiagram
				if diagram {
					want++
				}
				if _, err := d.Nonzero(q); err != nil {
					t.Fatal(err)
				}
				if got := rebuilds(); got != want {
					t.Fatalf("round %d: Nonzero left %d view rebuilds, want %d", round, got, want)
				}
				if !diagram {
					want++
				}
				for i, read := range reads {
					if err := read(); err != nil {
						t.Fatal(err)
					}
					if got := rebuilds(); got != want {
						t.Fatalf("round %d read %d: %d view rebuilds, want %d", round, i, got, want)
					}
				}
			}
		})
	}
}

// TestDynamicDropsDeadBucket deletes a whole recent batch: the bucket
// holding it leaves the decomposition at once, before any compaction,
// so no locate scans it.
func TestDynamicDropsDeadBucket(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	d, err := NewDynamic()
	if err != nil {
		t.Fatal(err)
	}
	h := &dynHarness{t: t, dyn: d, kind: "discrete"}
	for i := 0; i < 64+8; i++ {
		h.insertRandom(r)
	}
	if got := d.Stats().Buckets; got != 2 {
		t.Fatalf("72 inserts: %d buckets, want 2 (levels 6 and 3)", got)
	}
	for i := 0; i < 8; i++ {
		h.deleteAt(h.liveLen() - 1)
	}
	if s := d.Stats(); s.Buckets != 1 || s.Garbage != 8 {
		t.Fatalf("after deleting the level-3 batch: %d buckets, %d garbage; want 1, 8", s.Buckets, s.Garbage)
	}
	for i := 0; i < 4; i++ {
		h.compareAll(Pt(r.Float64()*40, r.Float64()*40), true)
	}
}

// TestDynamicCompactsAtLiveCount pins the one compaction rule:
// compaction fires on the delete that brings the dead slots up to the
// live count, and ids and ranks survive the renumbering.
func TestDynamicCompactsAtLiveCount(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	d, err := NewDynamic()
	if err != nil {
		t.Fatal(err)
	}
	h := &dynHarness{t: t, dyn: d, kind: "discrete"}
	for i := 0; i < 20; i++ {
		h.insertRandom(r)
	}
	var gone []PointID
	for i := 0; i < 9; i++ {
		gone = append(gone, h.deleteAt(0))
	}
	before := d.Stats()
	if before.Garbage != 9 {
		t.Fatalf("9 deletes of 20: garbage %d, want 9 (compacted early)", before.Garbage)
	}
	gone = append(gone, h.deleteAt(0))
	after := d.Stats()
	if after.Garbage != 0 || after.Buckets != 1 || after.RebuiltMembers != before.RebuiltMembers+10 {
		t.Fatalf("10th delete: %+v after %+v; want garbage 0, 1 bucket, 10 members rebuilt", after, before)
	}
	for _, id := range gone {
		if err := d.Delete(id); err == nil {
			t.Fatalf("Delete of compacted-away id %d accepted", id)
		}
		if rank, ok := d.RankOf(id); ok {
			t.Fatalf("RankOf of compacted-away id %d = %d", id, rank)
		}
	}
	for want, id := range d.IDs() {
		if got, ok := d.RankOf(id); !ok || got != want {
			t.Fatalf("RankOf(%d) = (%d, %v), want (%d, true)", id, got, ok, want)
		}
	}
	h.compareAll(Pt(20, 20), true)
}
