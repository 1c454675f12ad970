// Package dynamic maintains schedules for churning sensor deployments:
// nodes join, leave, move, or fail, and both the conflict graph and the
// slot assignment are repaired incrementally instead of rebuilt.
//
// The paper schedules a fixed deployment once. This package is the
// dynamic axis on top of it: a Mutator wraps a frozen conflict graph
// (any adjacency mode of internal/graph) in a delta Overlay — tombstone
// bitset, added vertices, edge patches computed by a bounded
// graph.SiteScanner probe — and keeps a valid coloring across events
// with bounded disruption. A Join is colored with the smallest slot free
// among its live neighbors; when none fits the color budget, a
// DSATUR-repair recolors only the damage region (the joining vertex plus
// its saturated neighbors), and only when even that fails does the
// Mutator fall back to a full recolor. Every Apply reports a Disruption
// (how many existing sensors were reassigned, how the palette moved) and
// the changed slot assignments, which the service layer forwards to
// clients as deltas.
//
// Cost model: one mutation touches the p ± 2·reach bounding box —
// O(box · |N|) probes — against the O(n · box · |N|) of a from-scratch
// ConflictGraph build, a ≥100× gap at 100k vertices (see
// BENCH_<date>_dynamic.json). The differential oracle tests pin the
// overlay edge-identical to a rebuild across all three base modes.
//
// Concurrency: a Mutator is single-writer. Serialize Apply calls and do
// not read (SlotOf, Verify, the Overlay) concurrently with one.
package dynamic

import (
	"errors"
	"fmt"
	"time"

	"tilingsched/internal/graph"
	"tilingsched/internal/lattice"
	"tilingsched/internal/schedule"
	"tilingsched/internal/tiling"
)

// ErrDynamic indicates an invalid mutation or mutator construction.
var ErrDynamic = errors.New("dynamic: invalid mutation")

// EventKind enumerates deployment mutations.
type EventKind uint8

const (
	// Join activates a sensor at Event.P — a tombstoned position
	// revives in O(1), a new position outside the base window becomes an
	// added vertex with patched edges.
	Join EventKind = iota
	// Leave deactivates the sensor at Event.P (planned departure, e.g.
	// duty-cycling for lifetime).
	Leave
	// Fail deactivates the sensor at Event.P (unplanned death); it is
	// Leave for the graph and the schedule, counted separately in Stats.
	Fail
	// Move relocates the sensor at Event.P to Event.To: a Leave followed
	// by a Join applied atomically within one event.
	Move
)

// String names the event kind for logs and wire encodings.
func (k EventKind) String() string {
	switch k {
	case Join:
		return "join"
	case Leave:
		return "leave"
	case Fail:
		return "fail"
	case Move:
		return "move"
	}
	return fmt.Sprintf("EventKind(%d)", uint8(k))
}

// Event is one deployment mutation.
type Event struct {
	// Kind selects the mutation.
	Kind EventKind
	// P is the position the event acts on.
	P lattice.Point
	// To is the destination of a Move (ignored otherwise).
	To lattice.Point
}

// SlotChange is one delta entry: the sensor at P now holds Slot, or has
// departed when Slot is -1. A batch's changes are exactly what a client
// must apply to its local copy of the schedule.
type SlotChange struct {
	P    lattice.Point
	Slot int
}

// Disruption quantifies how much of the schedule one Apply call
// disturbed — the bounded-disruption contract is Reassigned ≪ n for
// single-sensor events.
type Disruption struct {
	// Events is the number of events applied (the whole batch unless an
	// event errored).
	Events int
	// Joined and Departed count sensors activated and deactivated.
	Joined, Departed int
	// Reassigned counts previously-scheduled sensors whose slot changed
	// (fresh joins are not reassignments).
	Reassigned int
	// ColorsDelta is the palette high-water growth across the batch.
	ColorsDelta int
	// FullRecolor reports that some event exhausted DSATUR-repair and
	// the whole live deployment was recolored.
	FullRecolor bool
	// Compacted reports that the overlay was re-frozen into a fresh base
	// graph after the batch.
	Compacted bool
}

// Stats accumulates mutation traffic over a Mutator's lifetime.
type Stats struct {
	Joins, Leaves, Fails, Moves int64
	Repairs                     int64 // DSATUR-repair invocations
	FullRecolors                int64
	Compactions                 int64
}

// Options configures a Mutator. The zero value is ready to use.
type Options struct {
	// BaseMode forces the base graph's explicit adjacency mode (Auto
	// resolves by the crossover and shards large builds). Ignored when
	// Residues is set.
	BaseMode graph.Mode
	// Residues, when non-nil, builds the base graph in the implicit
	// periodic mode (graph.PeriodicConflictGraph): the deployment must
	// be periodic modulo the residues' period lattice, and compaction
	// re-freezes periodically too.
	Residues *tiling.Residues
	// ColorBudget is the slot count the repair colorer works within; 0
	// means the seed coloring's palette. A full recolor that provably
	// needs more colors floats the budget up to what it used.
	ColorBudget int
	// CompactThreshold triggers overlay re-freezing when the delta
	// (added vertices + dead base vertices) has grown by more than it
	// since the last compaction or restore; 0 means
	// DefaultCompactThreshold, negative disables auto-compaction.
	CompactThreshold int
	// Metrics, when non-nil, receives the mutator's telemetry (event
	// counts by op, repair-tier counts, disruption and compaction
	// histograms). Nil disables recording at zero cost.
	Metrics *Metrics
}

// DefaultCompactThreshold is the overlay growth (added vertices plus
// dead base vertices, beyond what the last compaction or restore left)
// past which Apply re-freezes the base graph. Growth rather than size:
// a compaction cannot drop tombstones inside the live bounding box, so
// a size trigger would rebuild the base on every batch once those
// alone exceed the threshold. Tuning it
// trades patch-scan and tombstone-filter overhead against rebuild
// spikes; see ROADMAP (compaction tuning is an open follow-up).
const DefaultCompactThreshold = 4096

// Mutator applies deployment mutations, maintaining the conflict graph
// incrementally (Overlay) and the slot assignment by bounded-disruption
// repair coloring. Single-writer: see the package comment.
type Mutator struct {
	ov      *Overlay
	colors  []int32 // per vertex id; -1 dead or uncolored
	palette int     // high-water slot count
	budget  int
	thresh  int
	floor   int // overlay size the last compaction or restore left
	stats   Stats
	met     *Metrics // nil disables telemetry
}

// NewMutator builds a mutator over the deployment restricted to the
// window, with every window position initially hosting a sensor. init
// seeds the slot assignment (e.g. the plan's Theorem 1 schedule, which
// makes every in-window rejoin zero-disruption); a nil init seeds with a
// DSATUR coloring of the base graph. The seed coloring is trusted to be
// collision-free — Verify checks it on demand, and the oracle tests pin
// the maintained coloring valid after every event.
func NewMutator(dep schedule.Deployment, w lattice.Window, init schedule.Schedule, opts Options) (*Mutator, error) {
	ov, err := newOverlay(dep, w, opts.BaseMode, opts.Residues)
	if err != nil {
		return nil, err
	}
	m := &Mutator{ov: ov, thresh: opts.CompactThreshold, met: opts.Metrics}
	ov.met = opts.Metrics
	if m.thresh == 0 {
		m.thresh = DefaultCompactThreshold
	}
	m.colors = make([]int32, ov.baseN)
	if init != nil {
		i := 0
		var serr error
		w.Each(func(p lattice.Point) bool {
			var s int
			s, serr = init.SlotOf(p)
			if serr != nil {
				return false
			}
			m.colors[i] = int32(s)
			if s+1 > m.palette {
				m.palette = s + 1
			}
			i++
			return true
		})
		if serr != nil {
			return nil, fmt.Errorf("%w: seeding from schedule: %v", ErrDynamic, serr)
		}
	} else {
		cs, k := graph.DSATUR(ov.base)
		for i, c := range cs {
			m.colors[i] = int32(c)
		}
		m.palette = k
	}
	m.budget = opts.ColorBudget
	if m.budget <= 0 {
		m.budget = m.palette
	}
	return m, nil
}

// Overlay exposes the maintained conflict graph for verification and
// inspection. Do not mutate the deployment through it.
func (m *Mutator) Overlay() *Overlay { return m.ov }

// Slots returns the palette high-water mark: every assigned slot is in
// [0, Slots()).
func (m *Mutator) Slots() int { return m.palette }

// AliveCount returns the number of live sensors.
func (m *Mutator) AliveCount() int { return m.ov.AliveCount() }

// Stats returns the lifetime mutation counters.
func (m *Mutator) Stats() Stats { return m.stats }

// SlotOf returns the current slot of the sensor at p; an error when no
// live sensor is there.
func (m *Mutator) SlotOf(p lattice.Point) (int, error) {
	id, ok := m.ov.IndexOf(p)
	if !ok || !m.ov.Alive(id) {
		return 0, fmt.Errorf("%w: no sensor at %v", ErrDynamic, p)
	}
	return int(m.colors[id]), nil
}

// EachAssignment calls f with every live sensor's position and slot
// until f returns false — the full-read and resync path of the service
// layer. The order is ascending vertex id (PointOf): base vertices in
// window order, then added vertices in join order. The base pass walks
// the window with an incrementing cursor (Window.Each), so it costs one
// liveness test per base position and no per-sensor allocation or
// division. The point passed for a base vertex is a shared buffer that
// the next call overwrites: clone to retain, never modify.
func (m *Mutator) EachAssignment(f func(p lattice.Point, slot int) bool) {
	o := m.ov
	v, stopped := 0, false
	o.w.Each(func(p lattice.Point) bool {
		if o.alive[v/64]&(1<<(v%64)) != 0 && !f(p, int(m.colors[v])) {
			stopped = true
			return false
		}
		v++
		return true
	})
	if stopped {
		return
	}
	for k, p := range o.added {
		if v := o.baseN + k; o.Alive(v) && !f(p, int(m.colors[v])) {
			return
		}
	}
}

// Apply runs a batch of events in order. Each event either fully applies
// or fails; on failure the batch stops with the events so far applied,
// the partial disruption and changes, and the error. Changes report the
// post-batch slot of every touched position (−1 for departures); a
// position touched twice appears once with its final state.
func (m *Mutator) Apply(events []Event) (Disruption, []SlotChange, error) {
	var d Disruption
	startPalette := m.palette
	touched := make(map[int]struct{}) // vertex ids with changed assignment
	departed := make(map[int]lattice.Point)
	for _, ev := range events {
		if err := m.applyOne(ev, &d, touched, departed); err != nil {
			d.ColorsDelta = m.palette - startPalette
			return d, m.changes(touched, departed), err
		}
		d.Events++
	}
	d.ColorsDelta = m.palette - startPalette
	m.met.recordApply(d.Reassigned)
	// Materialize the deltas before any compaction: the touched set holds
	// vertex ids, which a compaction renumbers.
	changed := m.changes(touched, departed)
	if m.thresh > 0 && m.ov.OverlaySize()-m.floor > m.thresh {
		compactStart := time.Now()
		remap, err := m.ov.compact()
		if err != nil {
			return d, changed, err
		}
		if remap != nil {
			fresh := make([]int32, m.ov.baseN)
			for i := range fresh {
				fresh[i] = -1
			}
			for old, now := range remap {
				if now >= 0 {
					fresh[now] = m.colors[old]
				}
			}
			m.colors = fresh
			m.floor = m.ov.OverlaySize()
			d.Compacted = true
			m.stats.Compactions++
			m.met.recordCompaction(time.Since(compactStart))
		}
	}
	return d, changed, nil
}

// changes materializes the touched/departed sets into SlotChange deltas.
// Touched ids are resolved by position so the list survives compaction.
func (m *Mutator) changes(touched map[int]struct{}, departed map[int]lattice.Point) []SlotChange {
	out := make([]SlotChange, 0, len(touched)+len(departed))
	for _, p := range departed {
		out = append(out, SlotChange{P: p, Slot: -1})
	}
	for id := range touched {
		p := m.ov.PointOf(id)
		if !m.ov.Alive(id) {
			continue // re-departed later in the batch; departed map covers it
		}
		out = append(out, SlotChange{P: p.Clone(), Slot: int(m.colors[id])})
	}
	return out
}

// applyOne applies a single event to the overlay and repairs the
// coloring.
func (m *Mutator) applyOne(ev Event, d *Disruption, touched map[int]struct{}, departed map[int]lattice.Point) error {
	switch ev.Kind {
	case Leave, Fail:
		id, err := m.ov.leave(ev.P)
		if err != nil {
			return err
		}
		m.colors[id] = -1
		d.Departed++
		delete(touched, id)
		departed[id] = ev.P.Clone()
		if ev.Kind == Fail {
			m.stats.Fails++
		} else {
			m.stats.Leaves++
		}
		m.met.recordEvent(ev.Kind)
		return nil
	case Join:
		if err := m.joinAndColor(ev.P, d, touched, departed); err != nil {
			return err
		}
		m.stats.Joins++
		m.met.recordEvent(Join)
		return nil
	case Move:
		// Leave + Join as one event: validate the destination — right
		// dimension, not occupied — before tearing the source down, so a
		// bad Move is a no-op.
		if ev.To.Dim() != m.ov.w.Dim() {
			return fmt.Errorf("%w: move to %v: dimension %d, want %d",
				ErrDynamic, ev.To, ev.To.Dim(), m.ov.w.Dim())
		}
		if to, ok := m.ov.IndexOf(ev.To); ok && m.ov.Alive(to) && !ev.To.Equal(ev.P) {
			return fmt.Errorf("%w: move to %v: position already hosts a sensor", ErrDynamic, ev.To)
		}
		id, err := m.ov.leave(ev.P)
		if err != nil {
			return err
		}
		m.colors[id] = -1
		d.Departed++
		delete(touched, id)
		departed[id] = ev.P.Clone()
		if err := m.joinAndColor(ev.To, d, touched, departed); err != nil {
			return err
		}
		m.stats.Moves++
		m.met.recordEvent(Move)
		return nil
	}
	return fmt.Errorf("%w: unknown event kind %d", ErrDynamic, ev.Kind)
}

// joinAndColor activates a sensor and assigns it a slot: smallest free
// within budget, else DSATUR-repair of the damage region, else full
// recolor.
func (m *Mutator) joinAndColor(p lattice.Point, d *Disruption, touched map[int]struct{}, departed map[int]lattice.Point) error {
	id, err := m.ov.join(p)
	if err != nil {
		return err
	}
	delete(departed, id) // a rejoin within the batch is not a departure
	for id >= len(m.colors) {
		m.colors = append(m.colors, -1)
	}
	d.Joined++
	if c, ok := m.smallestFree(id); ok {
		m.colors[id] = int32(c)
		if c+1 > m.palette {
			m.palette = c + 1
		}
		touched[id] = struct{}{}
		m.met.recordRepair(tierSmallest)
		return nil
	}
	m.stats.Repairs++
	if damage, reassigned, ok := m.repairRegion(id); ok {
		d.Reassigned += reassigned
		for _, v := range damage {
			touched[v] = struct{}{}
		}
		m.met.recordRepair(tierRegion)
		return nil
	}
	m.stats.FullRecolors++
	m.met.recordRepair(tierFull)
	d.FullRecolor = true
	reassigned, err := m.fullRecolor(id, touched)
	if err != nil {
		return err
	}
	d.Reassigned += reassigned
	return nil
}

// smallestFree returns the smallest slot below the budget unused by v's
// live neighbors.
func (m *Mutator) smallestFree(v int) (int, bool) {
	words := (m.budget + 63) / 64
	var inline [4]uint64
	var taken []uint64
	if words <= len(inline) {
		taken = inline[:words]
		clear(taken)
	} else {
		taken = make([]uint64, words)
	}
	m.ov.EachNeighbor(v, func(u int) bool {
		if c := m.colors[u]; c >= 0 && int(c) < m.budget {
			taken[c/64] |= 1 << (c % 64)
		}
		return true
	})
	for w, word := range taken {
		if inv := ^word; inv != 0 {
			c := w*64 + trailingZeros(inv)
			if c < m.budget {
				return c, true
			}
			return 0, false
		}
	}
	return 0, false
}
