package dynamic

import (
	"errors"
	"testing"

	"tilingsched/internal/graph"
	"tilingsched/internal/lattice"
	"tilingsched/internal/prototile"
	"tilingsched/internal/schedule"
	"tilingsched/internal/tiling"
)

func crossMutator(t *testing.T, w lattice.Window, opts Options) (*Mutator, *schedule.Theorem1) {
	t.Helper()
	tile := prototile.Cross(2, 1)
	lt, ok := tiling.FindLatticeTiling(tile)
	if !ok {
		t.Fatal("no tiling for cross")
	}
	plan := schedule.FromLatticeTiling(lt)
	m, err := NewMutator(schedule.NewHomogeneous(tile), w, plan, opts)
	if err != nil {
		t.Fatalf("NewMutator: %v", err)
	}
	return m, plan
}

// TestZeroDisruptionRejoin: with the Theorem 1 seed, leave/rejoin churn
// inside the window never reassigns an existing sensor — the tiling
// schedule is closed under removal, so the freed slot is always free
// again at rejoin time.
func TestZeroDisruptionRejoin(t *testing.T) {
	w := lattice.CenteredWindow(2, 6)
	m, _ := crossMutator(t, w, Options{})
	pts := []lattice.Point{lattice.Pt(0, 0), lattice.Pt(3, -2), lattice.Pt(-6, 6), lattice.Pt(1, 1)}
	for round := 0; round < 3; round++ {
		for _, p := range pts {
			d, changed, err := m.Apply([]Event{{Kind: Leave, P: p}})
			if err != nil {
				t.Fatalf("leave %v: %v", p, err)
			}
			if d.Reassigned != 0 || d.Departed != 1 || len(changed) != 1 || changed[0].Slot != -1 {
				t.Fatalf("leave %v: disruption %+v changes %v", p, d, changed)
			}
			d, changed, err = m.Apply([]Event{{Kind: Join, P: p}})
			if err != nil {
				t.Fatalf("rejoin %v: %v", p, err)
			}
			if d.Reassigned != 0 || d.Joined != 1 || d.FullRecolor {
				t.Fatalf("rejoin %v disrupted: %+v", p, d)
			}
			if len(changed) != 1 || changed[0].Slot < 0 || !changed[0].P.Equal(p) {
				t.Fatalf("rejoin %v changes %v", p, changed)
			}
		}
	}
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
	if m.Slots() != 5 {
		t.Fatalf("palette grew to %d under pure rejoin churn", m.Slots())
	}
}

// TestBoundedDisruptionLargeWindow is the acceptance property at scale:
// one join into a 10k-sensor deployment reassigns at most the damage
// region — orders of magnitude below n — and the graph stays the base
// graph (no rebuild happened: same overlay, zero added vertices).
func TestBoundedDisruptionLargeWindow(t *testing.T) {
	w, err := lattice.BoxWindow(100, 100)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := crossMutator(t, w, Options{Residues: tiling.IdentityResidues(2)})
	n := m.AliveCount()
	if n != 10000 {
		t.Fatalf("alive = %d", n)
	}
	// Out-of-window join: the only path that can disturb anything.
	p := lattice.Pt(100, 50)
	d, _, err := m.Apply([]Event{{Kind: Join, P: p}})
	if err != nil {
		t.Fatal(err)
	}
	if d.FullRecolor {
		t.Fatalf("single join forced a full recolor: %+v", d)
	}
	// Cross conflict degree is ≤ 12; damage-region repair may touch at
	// most that many existing sensors.
	if d.Reassigned > 12 {
		t.Fatalf("join reassigned %d sensors (n = %d)", d.Reassigned, n)
	}
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestEventErrors pins the failure contract: bad events error without
// corrupting state, and a failed batch reports the prefix it applied.
func TestEventErrors(t *testing.T) {
	w := lattice.CenteredWindow(2, 2)
	m, _ := crossMutator(t, w, Options{})
	cases := []struct {
		name string
		ev   Event
	}{
		{"join occupied", Event{Kind: Join, P: lattice.Pt(0, 0)}},
		{"leave missing", Event{Kind: Leave, P: lattice.Pt(9, 9)}},
		{"fail missing", Event{Kind: Fail, P: lattice.Pt(9, 9)}},
		{"move from missing", Event{Kind: Move, P: lattice.Pt(9, 9), To: lattice.Pt(10, 10)}},
		{"move onto occupied", Event{Kind: Move, P: lattice.Pt(0, 0), To: lattice.Pt(1, 1)}},
		{"move to wrong dimension", Event{Kind: Move, P: lattice.Pt(0, 0), To: lattice.Pt(1, 2, 3)}},
		{"wrong dimension", Event{Kind: Join, P: lattice.Pt(1, 2, 3)}},
	}
	for _, c := range cases {
		if _, _, err := m.Apply([]Event{c.ev}); !errors.Is(err, ErrDynamic) {
			t.Errorf("%s: err = %v, want ErrDynamic", c.name, err)
		}
		if err := m.Verify(); err != nil {
			t.Errorf("%s corrupted state: %v", c.name, err)
		}
	}
	// A failed Move is a full no-op: the source sensor must still be
	// scheduled (the half-applied leave would silently drop it).
	if _, err := m.SlotOf(lattice.Pt(0, 0)); err != nil {
		t.Fatalf("failed moves dropped the source sensor: %v", err)
	}
	// Batch stops at the failing event, keeping the applied prefix.
	d, changed, err := m.Apply([]Event{
		{Kind: Leave, P: lattice.Pt(0, 0)},
		{Kind: Join, P: lattice.Pt(0, 0)},
		{Kind: Join, P: lattice.Pt(0, 0)}, // occupied again: fails
	})
	if !errors.Is(err, ErrDynamic) || d.Events != 2 {
		t.Fatalf("partial batch: events=%d err=%v", d.Events, err)
	}
	if len(changed) != 1 || changed[0].Slot < 0 {
		t.Fatalf("partial batch changes %v", changed)
	}
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestBatchDeltaMerging: a position touched several times in one batch
// appears once in the deltas, with its final state.
func TestBatchDeltaMerging(t *testing.T) {
	w := lattice.CenteredWindow(2, 3)
	m, _ := crossMutator(t, w, Options{})
	p, q := lattice.Pt(0, 0), lattice.Pt(4, 0) // q outside the window
	d, changed, err := m.Apply([]Event{
		{Kind: Leave, P: p},
		{Kind: Join, P: p}, // rejoin: departure canceled
		{Kind: Join, P: q},
		{Kind: Leave, P: q}, // added then gone: only the departure remains
	})
	if err != nil {
		t.Fatal(err)
	}
	if d.Events != 4 || d.Joined != 2 || d.Departed != 2 {
		t.Fatalf("disruption %+v", d)
	}
	got := map[string]int{}
	for _, ch := range changed {
		if _, dup := got[ch.P.Key()]; dup {
			t.Fatalf("position %v appears twice in %v", ch.P, changed)
		}
		got[ch.P.Key()] = ch.Slot
	}
	if s, ok := got[p.Key()]; !ok || s < 0 {
		t.Fatalf("rejoined %v missing or departed in deltas: %v", p, changed)
	}
	if s, ok := got[q.Key()]; !ok || s != -1 {
		t.Fatalf("departed %v missing or live in deltas: %v", q, changed)
	}
}

// TestMoveAtomicity: a move is one event — source freed, destination
// colored, one departure and one join in the disruption.
func TestMoveAtomicity(t *testing.T) {
	w := lattice.CenteredWindow(2, 3)
	m, _ := crossMutator(t, w, Options{})
	from, to := lattice.Pt(2, 2), lattice.Pt(5, 5)
	d, _, err := m.Apply([]Event{{Kind: Move, P: from, To: to}})
	if err != nil {
		t.Fatal(err)
	}
	if d.Joined != 1 || d.Departed != 1 {
		t.Fatalf("move disruption %+v", d)
	}
	if _, err := m.SlotOf(from); err == nil {
		t.Fatal("source still scheduled after move")
	}
	if _, err := m.SlotOf(to); err != nil {
		t.Fatalf("destination unscheduled after move: %v", err)
	}
	if m.Stats().Moves != 1 {
		t.Fatalf("stats %+v", m.Stats())
	}
}

// TestEachAssignment walks every live sensor exactly once with its
// current slot, in ascending vertex id order (base vertices in window
// order, then added vertices in join order), before and after a
// compaction renumbers the ids, and stops when the callback says so.
func TestEachAssignment(t *testing.T) {
	w := lattice.CenteredWindow(2, 2)
	m, plan := crossMutator(t, w, Options{CompactThreshold: 2})
	if d, _, err := m.Apply([]Event{
		{Kind: Leave, P: lattice.Pt(0, 0)},
		{Kind: Join, P: lattice.Pt(3, 3)},
	}); err != nil || d.Compacted {
		t.Fatalf("apply: %v (compacted %v)", err, d.Compacted)
	}
	checkVisitOrder(t, m, "overlay")
	seen := map[string]int{}
	m.EachAssignment(func(p lattice.Point, slot int) bool {
		seen[p.Key()] = slot
		return true
	})
	if _, ok := seen[lattice.Pt(0, 0).Key()]; ok {
		t.Fatal("departed sensor visited")
	}
	if s, ok := seen[lattice.Pt(1, 1).Key()]; !ok {
		t.Fatal("untouched sensor missing")
	} else if want, _ := plan.SlotOf(lattice.Pt(1, 1)); s != want {
		t.Fatalf("untouched sensor drifted: %d ≠ %d", s, want)
	}
	if d, _, err := m.Apply([]Event{{Kind: Leave, P: lattice.Pt(-1, 1)}}); err != nil || !d.Compacted {
		t.Fatalf("leave: %v (compacted %v)", err, d.Compacted)
	}
	if _, _, err := m.Apply([]Event{{Kind: Join, P: lattice.Pt(-4, 0)}}); err != nil {
		t.Fatal(err)
	}
	checkVisitOrder(t, m, "compacted")
	calls := 0
	m.EachAssignment(func(lattice.Point, int) bool {
		calls++
		return calls < 3
	})
	if calls != 3 {
		t.Fatalf("callback ran %d times after asking to stop at 3", calls)
	}
}

// checkVisitOrder pins EachAssignment's visits to the live vertex ids in
// ascending order: same positions (PointOf) and slots (SlotOf).
func checkVisitOrder(t *testing.T, m *Mutator, stage string) {
	t.Helper()
	var want []lattice.Point
	for v := 0; v < m.ov.NumVertices(); v++ {
		if m.ov.Alive(v) {
			want = append(want, m.ov.PointOf(v))
		}
	}
	i := 0
	m.EachAssignment(func(p lattice.Point, slot int) bool {
		if i >= len(want) || !p.Equal(want[i]) {
			t.Fatalf("%s: visit %d at %v, want vertex order %v", stage, i, p, want)
		}
		if s, err := m.SlotOf(p); err != nil || s != slot {
			t.Fatalf("%s: %v visited with slot %d, SlotOf %d (%v)", stage, p, slot, s, err)
		}
		i++
		return true
	})
	if i != len(want) || i != m.AliveCount() {
		t.Fatalf("%s: visited %d, %d live ids, alive %d", stage, i, len(want), m.AliveCount())
	}
}

// TestCompactionNoThrash: tombstones inside the live bounding box survive
// a compaction, so once they alone exceed the threshold a size trigger
// would rebuild the base graph on every later batch. The trigger counts
// growth since the last compaction instead: a checkerboard of ~4,800
// interior leaves in a 100×100 window compacts once, and 100 further
// single-event batches compact no more.
func TestCompactionNoThrash(t *testing.T) {
	w, err := lattice.NewWindow(lattice.Pt(0, 0), lattice.Pt(99, 99))
	if err != nil {
		t.Fatal(err)
	}
	m, _ := crossMutator(t, w, Options{})
	var leaves []Event
	for x := 1; x < 99; x++ {
		for y := 1; y < 99; y++ {
			if (x+y)%2 == 0 {
				leaves = append(leaves, Event{Kind: Leave, P: lattice.Pt(x, y)})
			}
		}
	}
	if len(leaves) <= DefaultCompactThreshold {
		t.Fatalf("%d tombstones do not exceed the threshold %d", len(leaves), DefaultCompactThreshold)
	}
	if _, _, err := m.Apply(leaves); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		ev := Event{Kind: Join, P: leaves[i/2].P}
		if i%2 == 1 {
			ev.Kind = Leave
		}
		if _, _, err := m.Apply([]Event{ev}); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	if c := m.Stats().Compactions; c > 1 {
		t.Fatalf("%d compactions over 101 batches, want at most 1", c)
	}
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestSiteScannerAgainstConflict pins the SiteScanner probe to the
// reference pairwise oracle over a dense candidate box.
func TestSiteScannerAgainstConflict(t *testing.T) {
	for _, tile := range []*prototile.Tile{
		prototile.Cross(2, 1),
		prototile.ChebyshevBall(2, 1),
		prototile.Directional(),
	} {
		dep := schedule.NewHomogeneous(tile)
		sc, err := graph.NewSiteScanner(dep)
		if err != nil {
			t.Fatalf("%s: NewSiteScanner: %v", tile.Name(), err)
		}
		for _, site := range []lattice.Point{lattice.Pt(0, 0), lattice.Pt(-3, 5)} {
			if err := sc.Reset(site); err != nil {
				t.Fatalf("Reset: %v", err)
			}
			box := lattice.CenteredWindow(2, 2*dep.Reach()+2)
			box.Each(func(d lattice.Point) bool {
				q := site.Add(d)
				want := schedule.Conflict(dep, site, q)
				if got := sc.Conflicts(q); got != want {
					t.Fatalf("%s: Conflicts(%v vs %v) = %v, want %v", tile.Name(), site, q, got, want)
				}
				return true
			})
		}
	}
}

// TestConflictGraphModeRejectsPeriodic: the explicit-mode constructor
// must refuse the implicit mode rather than mis-build it.
func TestConflictGraphModeRejectsPeriodic(t *testing.T) {
	dep := schedule.NewHomogeneous(prototile.Cross(2, 1))
	if _, _, err := graph.ConflictGraphMode(dep, lattice.CenteredWindow(2, 2), graph.Periodic); err == nil {
		t.Fatal("ConflictGraphMode(Periodic) succeeded")
	}
}
