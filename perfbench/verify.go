package main

import (
	"fmt"
	"math/rand"
	"runtime/metrics"
	"time"

	"tilingsched/internal/core"
	"tilingsched/internal/graph"
	"tilingsched/internal/lattice"
	"tilingsched/internal/prototile"
	"tilingsched/internal/service"
)

// The verify workload is the offline paper-reproduction path. Each job
// runs every tile of a fixed set over a seeded window of ~50k sensors
// (~200k per job): it compiles the plan, builds the explicit conflict
// graph (CSR, sharded above graph.ParallelThreshold), colors it with
// DSATUR, verifies the Theorem-1 schedule against it, and verifies the
// same schedule against the implicit periodic graph. Running the whole
// set per job keeps every job the same amount of work, so job times are
// comparable samples.

// verifyTiles is the fixed tile set with each tile's window side.
var verifyTiles = []struct {
	spec service.PlanSpec
	side int
}{
	{service.PlanSpec{Tile: service.TileSpec{Name: "cross:2:1"}}, 224},
	{service.PlanSpec{Tile: service.TileSpec{Name: "chebyshev:2:1"}}, 224},
	{service.PlanSpec{Lattice: "hexagonal", Tile: service.TileSpec{Name: "ball:1"}}, 224},
	{service.PlanSpec{Tile: service.TileSpec{Name: "cross:3:1"}}, 37},
}

// verifyWarmSide shrinks the set-up warm-up job's windows.
const verifyWarmSide = 2

type verifyJob struct {
	lat  *lattice.Lattice
	tile *prototile.Tile
	win  lattice.Window
}

type verifyInst struct {
	rep *report
	// jobs holds whole tile sets: job i is jobs[i*len(verifyTiles):].
	jobs []verifyJob
	next int
}

func setupVerify(cfg config, rep *report) (func() (instance, error), error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	var jobs, warm []verifyJob
	for i := 0; i < 16*len(verifyTiles); i++ {
		t := verifyTiles[i%len(verifyTiles)]
		lat, tile, err := t.spec.Resolve()
		if err != nil {
			return nil, err
		}
		side := t.side
		if i < len(verifyTiles) {
			side /= verifyWarmSide
		}
		if cfg.small {
			side = max(side/16, 3)
		}
		lo, hi := make([]int, tile.Dim()), make([]int, tile.Dim())
		for a := range lo {
			lo[a] = rng.Intn(20001) - 10000
			hi[a] = lo[a] + side - 1
		}
		w, err := lattice.NewWindow(lattice.Pt(lo...), lattice.Pt(hi...))
		if err != nil {
			return nil, err
		}
		if i < len(verifyTiles) {
			warm = append(warm, verifyJob{lat: lat, tile: tile, win: w})
		} else {
			jobs = append(jobs, verifyJob{lat: lat, tile: tile, win: w})
		}
	}
	return func() (instance, error) {
		// Set-up compiles every plan of the set and runs one small job.
		v := &verifyInst{rep: rep, jobs: warm}
		if _, err := v.job(); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		v.jobs, v.next = jobs, 0
		return v, nil
	}, nil
}

// verifyTimes are one job's stage timings and counts.
type verifyTimes struct {
	compile, build, dsatur, verify, periodic time.Duration
	sensors, edges                           int
	allocBytes                               uint64
	colorsOverN                              float64
}

func (v *verifyInst) measure(seconds float64, traced bool) (phase, error) {
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	start := time.Now()
	var lat []float64
	var sum verifyTimes
	var colorRatios []float64
	sensors := 0
	jobs := 0
	for time.Now().Before(deadline) {
		t0 := time.Now()
		vt, err := v.job()
		lat = append(lat, float64(time.Since(t0))/1e6)
		v.rep.op(err == nil, "verify job %d: %v", v.next, err)
		if err != nil {
			continue
		}
		jobs++
		sensors += vt.sensors
		sum.compile += vt.compile
		sum.build += vt.build
		sum.dsatur += vt.dsatur
		sum.verify += vt.verify
		sum.periodic += vt.periodic
		sum.sensors += vt.sensors
		sum.edges += vt.edges
		sum.allocBytes += vt.allocBytes
		colorRatios = append(colorRatios, vt.colorsOverN)
	}
	ph := phase{throughput: float64(sensors) / time.Since(start).Seconds(), latMs: lat, slotInflation: 1, ops: int64(jobs)}
	if traced && jobs > 0 {
		n := float64(sum.sensors)
		v.rep.layer("core.compile_ms", float64(sum.compile)/1e6/float64(jobs*len(verifyTiles)))
		v.rep.layer("graph.build_ns_per_sensor", float64(sum.build)/n)
		v.rep.layer("graph.edges_per_sensor", float64(sum.edges)/n)
		v.rep.layer("graph.bytes_per_edge", float64(sum.allocBytes)/float64(sum.edges))
		v.rep.layer("graph.dsatur_ns_per_sensor", float64(sum.dsatur)/n)
		v.rep.layerSamples("graph.colors_over_N", median(colorRatios), colorRatios)
		v.rep.layer("graph.verify_ns_per_sensor", float64(sum.verify)/n)
		v.rep.layer("graph.periodic_verify_ns_per_sensor", float64(sum.periodic)/n)
	}
	return ph, nil
}

// heapAllocs reads the bytes allocated so far.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// job runs the next tile set and sums its stage timings.
func (v *verifyInst) job() (verifyTimes, error) {
	var sum verifyTimes
	n := len(verifyTiles)
	start := v.next % (len(v.jobs) / n) * n
	v.next++
	for _, j := range v.jobs[start : start+n] {
		vt, err := run(j)
		if err != nil {
			return sum, fmt.Errorf("%s: %w", j.tile.Name(), err)
		}
		sum.compile += vt.compile
		sum.build += vt.build
		sum.dsatur += vt.dsatur
		sum.verify += vt.verify
		sum.periodic += vt.periodic
		sum.sensors += vt.sensors
		sum.edges += vt.edges
		sum.allocBytes += vt.allocBytes
		sum.colorsOverN = max(sum.colorsOverN, vt.colorsOverN)
	}
	return sum, nil
}

// run executes one tile's stages and checks every stage's output.
func run(j verifyJob) (verifyTimes, error) {
	var vt verifyTimes
	t := time.Now()
	plan, err := core.NewPlan(j.lat, j.tile)
	vt.compile = time.Since(t)
	if err != nil {
		return vt, err
	}
	if plan.Slots() != j.tile.Size() {
		return vt, fmt.Errorf("Theorem-1 slot count %d ≠ |N| = %d", plan.Slots(), j.tile.Size())
	}
	a0 := heapAllocs()
	t = time.Now()
	g, _, err := graph.ConflictGraph(plan.Deployment(), j.win)
	vt.build = time.Since(t)
	vt.allocBytes = heapAllocs() - a0
	if err != nil {
		return vt, err
	}
	vt.sensors, vt.edges = g.N(), g.Edges()
	t = time.Now()
	colors, k := graph.DSATUR(g)
	vt.dsatur = time.Since(t)
	if !g.ValidColoring(colors) {
		return vt, fmt.Errorf("DSATUR coloring of %s is not valid", j.tile.Name())
	}
	vt.colorsOverN = float64(k) / float64(j.tile.Size())
	t = time.Now()
	err = graph.VerifySchedule(g, j.win, plan.Schedule())
	vt.verify = time.Since(t)
	if err != nil {
		return vt, fmt.Errorf("VerifySchedule (explicit): %w", err)
	}
	t = time.Now()
	pg, err := graph.HomogeneousConflictGraph(plan.Deployment(), j.win)
	if err == nil {
		err = graph.VerifySchedule(pg, j.win, plan.Schedule())
	}
	vt.periodic = time.Since(t)
	if err != nil {
		return vt, fmt.Errorf("VerifySchedule (periodic): %w", err)
	}
	return vt, nil
}

func (v *verifyInst) finish() error { return nil }

func (v *verifyInst) close() {}
