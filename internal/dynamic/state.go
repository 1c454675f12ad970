package dynamic

// Checkpoint support: a Mutator's churn state — which positions are
// alive and which slot each holds — can be captured as a State and
// rebuilt later with NewMutatorFromState. This is the assignment form
// the service layer's session persistence (snapshot + replay WAL)
// serializes: a snapshot is exactly a compacted deployment, so the
// restore path shares the invariants of Overlay.compact — the state
// window is the bounding box of the live sensors, every live sensor is
// a base vertex of that window, and dead positions are tombstones.

import (
	"fmt"

	"tilingsched/internal/lattice"
	"tilingsched/internal/schedule"
)

// State is a point-in-time checkpoint of a Mutator: the bounding window
// of the live deployment and one slot per window position (-1 where no
// live sensor sits). Capture it with Mutator.State, rebuild with
// NewMutatorFromState. A State is a value snapshot — it shares no
// memory with the mutator that produced it.
type State struct {
	// Window is the bounding window of the live sensors at capture time
	// (the mutator's current window when no sensor is alive).
	Window lattice.Window
	// Slots holds one entry per Window position in Window.IndexOf
	// order: the live sensor's slot, or -1 for a tombstone.
	Slots []int32
	// Palette is the slot-count high-water mark (every live slot is in
	// [0, Palette)).
	Palette int
	// Budget is the repair colorer's slot budget at capture time, so a
	// restored mutator repairs within the same bound.
	Budget int
}

// State captures the mutator's current churn state. The caller must not
// run it concurrently with Apply (single-writer contract).
func (m *Mutator) State() State {
	st := State{Palette: m.palette, Budget: m.budget}
	dim := m.ov.w.Dim()
	var lo, hi lattice.Point
	n := m.ov.NumVertices()
	for v := 0; v < n; v++ {
		if !m.ov.Alive(v) {
			continue
		}
		p := m.ov.PointOf(v)
		if lo == nil {
			lo, hi = p.Clone(), p.Clone()
			continue
		}
		for a := 0; a < dim; a++ {
			if p[a] < lo[a] {
				lo[a] = p[a]
			}
			if p[a] > hi[a] {
				hi[a] = p[a]
			}
		}
	}
	if lo == nil {
		// Nothing alive: keep the current window as the frame so a
		// restore still knows where the deployment lived.
		st.Window = m.ov.w
		st.Slots = make([]int32, m.ov.w.Size())
		for i := range st.Slots {
			st.Slots[i] = -1
		}
		return st
	}
	w, err := lattice.NewWindow(lo, hi)
	if err != nil {
		// Unreachable: lo ≤ hi by construction.
		panic(fmt.Sprintf("dynamic: state window: %v", err))
	}
	st.Window = w
	st.Slots = make([]int32, w.Size())
	for i := range st.Slots {
		st.Slots[i] = -1
	}
	for v := 0; v < n; v++ {
		if !m.ov.Alive(v) {
			continue
		}
		i, ok := w.IndexOf(m.ov.PointOf(v))
		if !ok {
			panic(fmt.Sprintf("dynamic: live vertex %d escaped its bounding window", v))
		}
		st.Slots[i] = m.colors[v]
	}
	return st
}

// NewMutatorFromState rebuilds a mutator from a captured State: the base
// graph is built over the state window (respecting opts.BaseMode /
// opts.Residues exactly as NewMutator does), positions with slot -1 are
// tombstoned, and the live coloring is restored verbatim. The state must
// be internally consistent — every live slot in [0, Palette) — or an
// ErrDynamic-wrapped error is returned; collision-freedom is trusted the
// same way NewMutator trusts its seed schedule (Verify checks on
// demand).
func NewMutatorFromState(dep schedule.Deployment, st State, opts Options) (*Mutator, error) {
	size, err := st.Window.SizeChecked()
	if err != nil {
		return nil, fmt.Errorf("%w: state window: %v", ErrDynamic, err)
	}
	if len(st.Slots) != size {
		return nil, fmt.Errorf("%w: state has %d slots for a %d-point window",
			ErrDynamic, len(st.Slots), size)
	}
	if st.Palette < 0 {
		return nil, fmt.Errorf("%w: negative palette %d", ErrDynamic, st.Palette)
	}
	for i, c := range st.Slots {
		if c >= 0 && int(c) >= st.Palette || c < -1 {
			return nil, fmt.Errorf("%w: state slot %d at index %d outside [0, %d)",
				ErrDynamic, c, i, st.Palette)
		}
	}
	ov, err := newOverlay(dep, st.Window, opts.BaseMode, opts.Residues)
	if err != nil {
		return nil, err
	}
	ov.met = opts.Metrics
	m := &Mutator{ov: ov, thresh: opts.CompactThreshold, met: opts.Metrics}
	if m.thresh == 0 {
		m.thresh = DefaultCompactThreshold
	}
	m.colors = make([]int32, ov.baseN)
	for i, c := range st.Slots {
		m.colors[i] = c
		if c < 0 {
			ov.setAlive(i, false)
		}
	}
	m.floor = ov.OverlaySize()
	m.palette = st.Palette
	m.budget = opts.ColorBudget
	if m.budget <= 0 {
		m.budget = st.Budget
	}
	if m.budget <= 0 {
		m.budget = m.palette
	}
	return m, nil
}
