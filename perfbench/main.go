// Command perfbench is the repository benchmark: four seeded workloads
// that drive the scheduling service end to end, check every output, and
// print one JSON result line.
//
//	perfbench --workload lookup|churn|fanout|verify --seed N [--seconds S] --trace 0|1
//	perfbench compare --parent DIR --change DIR
//
// --seconds defaults to BENCHMARK.json's run_seconds, the run length the
// bounds were set for.
//
// With --trace 0 the result carries the end-to-end metrics of
// BENCHMARK.json; with --trace 1 it carries the per-layer metrics, which
// the benchmark measures by timing its own calls into each layer's public
// functions (nothing inside the program is instrumented). A traced run
// first measures half its time untraced, then half traced, and reports
// the ratio of the two as bench.trace_overhead_ratio. Every run also
// writes a run record (see record.go) that the compare subcommand reads.
//
// The program under test receives only inputs generated from --seed;
// predictions.json holds the held-out seed and the prediction table.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// A run sets its workload up at least minSetups times and until the
// set-ups have taken setupBudget, at most maxSetups times; setup_s is
// the median, and only the last instance is measured. Cheap set-ups thus
// repeat more, which keeps their median steady.
const (
	minSetups   = 5
	maxSetups   = 25
	setupBudget = 1500 * time.Millisecond
)

// e2eUnits are the end-to-end metrics (BENCHMARK.json end_to_end). Every
// workload reports every one of them; see predictions.json for what each
// means on each workload.
var e2eUnits = map[string]string{
	"setup_s":          "s",
	"throughput_per_s": "1/s",
	"latency_p50_ms":   "ms",
	"latency_p99_ms":   "ms",
	"slot_inflation":   "ratio",
	"heap_peak_mb":     "MB",
}

// layerUnits are the per-layer metrics (BENCHMARK.json per_layer). A
// workload that does no work in a layer reports that layer's metrics as 0.
var layerUnits = map[string]string{
	"service.codec.json.decode_ns":           "ns",
	"service.codec.bin.decode_ns":            "ns",
	"service.codec.json.req_bytes":           "B",
	"service.codec.bin.req_bytes":            "B",
	"service.codec.resp_bytes":               "B",
	"service.registry.get_ns":                "ns",
	"service.registry.hit_ratio":             "ratio",
	"service.engine.ns_per_lookup":           "ns",
	"service.server.handler_self_ns":         "ns",
	"net.loopback.ns_per_req":                "ns",
	"dynamic.apply_ns_per_event":             "ns",
	"dynamic.reassigned_per_event":           "count",
	"dynamic.full_recolor_ratio":             "ratio",
	"service.sessions.mutate_ns":             "ns",
	"service.sessions.full_read_ns":          "ns",
	"service.persist.wal_ns_per_batch":       "ns",
	"service.persist.wal_bytes_per_event":    "B",
	"service.persist.snapshot_ms":            "ms",
	"service.subscribe.publish_ns":           "ns",
	"service.subscribe.fanout_span_ms":       "ms",
	"service.subscribe.json.bytes_per_delta": "B",
	"service.subscribe.bin.bytes_per_delta":  "B",
	"service.subscribe.drops":                "count",
	"service.subscribe.queue_max":            "count",
	"service.subscribe.propagation_p50_ms":   "ms",
	"service.subscribe.propagation_p99_ms":   "ms",
	"service.sessions.ack_p99_ms":            "ms",
	"core.compile_ms":                        "ms",
	"graph.build_ns_per_sensor":              "ns",
	"graph.edges_per_sensor":                 "count",
	"graph.bytes_per_edge":                   "B",
	"graph.dsatur_ns_per_sensor":             "ns",
	"graph.colors_over_N":                    "ratio",
	"graph.verify_ns_per_sensor":             "ns",
	"graph.periodic_verify_ns_per_sensor":    "ns",
	"runtime.alloc_bytes_per_op":             "B",
	"runtime.gc_cycles":                      "count",
	"runtime.gc_pause_total_ms":              "ms",
	"loadgen.late_p99_ms":                    "ms",
	"loadgen.samples":                        "count",
	"bench.trace_overhead_ratio":             "ratio",
}

// config is one run's settings.
type config struct {
	seed    int64
	seconds float64
	// small shrinks every size for the smoke tests.
	small bool
}

// workload is one named traffic mix.
type workload struct {
	name string
	// prepare generates the run's inputs from the seed (untimed) and
	// returns the setup step, which builds a ready-to-measure instance;
	// everything the setup step does counts toward setup_s.
	prepare func(cfg config, rep *report) (func() (instance, error), error)
}

// instance is a set-up workload.
type instance interface {
	// measure runs the workload for the given time. When traced, it also
	// times its calls into each layer and records per-layer metrics.
	measure(seconds float64, traced bool) (phase, error)
	// finish runs the end-of-run output checks.
	finish() error
	// close releases everything the instance started and waits for it.
	close()
}

// phase is what one measured phase yields for the end-to-end metrics.
type phase struct {
	// throughput is the workload's unit of work completed per second.
	throughput float64
	// latMs are the raw latency samples of the workload's primary
	// operation, in milliseconds.
	latMs []float64
	// slotInflation is final M ÷ |N|.
	slotInflation float64
	// ops counts operations for runtime.alloc_bytes_per_op.
	ops int64
}

var workloads = []workload{
	{name: "lookup", prepare: setupLookup},
	{name: "churn", prepare: setupChurn},
	{name: "fanout", prepare: setupFanout},
	{name: "verify", prepare: setupVerify},
}

// report collects a run's outcome: operation and failure counts, the
// metrics, and a few failure messages for standard error.
type report struct {
	attempted atomic.Int64
	failed    atomic.Int64

	mu     sync.Mutex
	notes  []string
	e2e    map[string]*series
	layers map[string]*series
	// steal is the CPU steal share over the measured phases.
	steal float64
}

func newReport() *report {
	return &report{e2e: map[string]*series{}, layers: map[string]*series{}}
}

// op counts one attempted operation, and a failure when !ok.
func (r *report) op(ok bool, format string, args ...any) {
	r.attempted.Add(1)
	if !ok {
		r.fail(format, args...)
	}
}

// fail counts one failed operation (already counted as attempted).
func (r *report) fail(format string, args ...any) {
	r.failed.Add(1)
	r.mu.Lock()
	if len(r.notes) < 20 {
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
	r.mu.Unlock()
}

// layer records a per-layer metric value.
func (r *report) layer(name string, v float64) {
	r.layerSamples(name, v, []float64{v})
}

// layerSamples records a per-layer metric with the raw samples it came
// from.
func (r *report) layerSamples(name string, v float64, samples []float64) {
	unit, ok := layerUnits[name]
	if !ok {
		panic("perfbench: unknown per-layer metric " + name)
	}
	r.mu.Lock()
	r.layers[name] = newSeries(unit, v, samples)
	r.mu.Unlock()
}

func (r *report) setE2E(name string, v float64, samples []float64) {
	r.e2e[name] = newSeries(e2eUnits[name], v, samples)
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := runCompare(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			os.Exit(1)
		}
		return
	}
	name := flag.String("workload", "", "workload: lookup, churn, fanout or verify")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 0, "measured seconds (default BENCHMARK.json run_seconds)")
	traced := flag.Int("trace", 0, "1 reports per-layer metrics instead of end-to-end ones")
	recordPath := flag.String("record", "", "run-record file (default .bench_build/records/<workload>-s<seed>-t<trace>-<time>.json)")
	flag.Parse()
	if err := checkSource(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if *seconds == 0 {
		spec, err := readBenchSpec()
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
		*seconds = float64(spec.RunSeconds)
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *traced)
		os.Exit(2)
	}
	cfg := config{seed: *seed, seconds: *seconds}
	rep, err := runWorkload(*w, cfg, *traced == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench %s: %v\n", w.name, err)
		os.Exit(1)
	}
	for _, n := range rep.notes {
		fmt.Fprintln(os.Stderr, "perfbench check failed:", n)
	}
	line := resultLine{
		Correct:   rep.failed.Load() == 0,
		Attempted: rep.attempted.Load(),
		Failed:    rep.failed.Load(),
		Metrics:   map[string]metricOut{},
	}
	set := rep.e2e
	if *traced == 1 {
		set = rep.layers
	}
	for n, s := range set {
		line.Metrics[n] = metricOut{Value: s.Value, Unit: s.Unit}
	}
	path := *recordPath
	if path == "" {
		path = fmt.Sprintf(".bench_build/records/%s-s%d-t%d-%d.json", w.name, *seed, *traced, time.Now().UnixNano())
	}
	if err := writeRecord(path, w.name, cfg, *traced == 1, rep, set); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: run record:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// checkSource refuses to run outside a checkout of the repository: the
// benchmark measures the program whose source sits beside it.
func checkSource() error {
	for _, p := range []string{"go.mod", "internal/service", "BENCHMARK.json"} {
		if _, err := os.Stat(p); err != nil {
			return fmt.Errorf("run from the repository root: %v", err)
		}
	}
	return nil
}

// runWorkload sets the workload up setupRepeats times, measures the last
// instance, and runs its output checks. Untraced, the whole time is one
// measured phase; traced, half is untraced and half traced.
func runWorkload(w workload, cfg config, traced bool) (*report, error) {
	rep := newReport()
	setup, err := w.prepare(cfg, rep)
	if err != nil {
		return nil, fmt.Errorf("inputs: %w", err)
	}
	var setups []float64
	var inst instance
	var spent time.Duration
	heap := startHeapPeak()
	for len(setups) < minSetups || (spent < setupBudget && len(setups) < maxSetups) {
		if inst != nil {
			inst.close()
			inst = nil
		}
		runtime.GC()
		heap.reset()
		start := time.Now()
		var err error
		inst, err = setup()
		if err != nil {
			heap.stop()
			return nil, fmt.Errorf("setup: %w", err)
		}
		el := time.Since(start)
		spent += el
		setups = append(setups, el.Seconds())
	}
	defer inst.close()
	rep.setE2E("setup_s", median(setups), setups)

	rep.steal = -1
	if t0, s0, ok := cpuTimes(); ok {
		defer func() {
			if t1, s1, ok := cpuTimes(); ok && t1 > t0 {
				rep.steal = float64(s1-s0) / float64(t1-t0)
			}
		}()
	}
	// Each measured phase starts right after a collection, so the
	// collections inside it fall at the same points on every run.
	if !traced {
		runtime.GC()
		ph, err := inst.measure(cfg.seconds, false)
		heapMB := heap.stop()
		if err != nil {
			return nil, err
		}
		if err := setPhase(rep, ph); err != nil {
			return nil, err
		}
		rep.setE2E("heap_peak_mb", heapMB, nil)
	} else {
		var ms0, ms1 runtime.MemStats
		runtime.GC()
		base, err := inst.measure(cfg.seconds/2, false)
		if err != nil {
			heap.stop()
			return nil, err
		}
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		ph, err := inst.measure(cfg.seconds/2, true)
		heap.stop()
		if err != nil {
			return nil, err
		}
		runtime.ReadMemStats(&ms1)
		if err := setPhase(rep, ph); err != nil {
			return nil, err
		}
		b, t := pctile(sorted(base.latMs), 0.5), pctile(sorted(ph.latMs), 0.5)
		if b > 0 {
			rep.layer("bench.trace_overhead_ratio", t/b)
		}
		if ph.ops > 0 {
			rep.layer("runtime.alloc_bytes_per_op", float64(ms1.TotalAlloc-ms0.TotalAlloc)/float64(ph.ops))
		}
		rep.layer("runtime.gc_cycles", float64(ms1.NumGC-ms0.NumGC))
		rep.layer("runtime.gc_pause_total_ms", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6)
		for n := range layerUnits {
			if _, ok := rep.layers[n]; !ok {
				rep.layer(n, 0)
			}
		}
	}
	if err := inst.finish(); err != nil {
		return nil, err
	}
	for n := range e2eUnits {
		if _, ok := rep.e2e[n]; !ok && !traced {
			return nil, fmt.Errorf("workload %s did not report %s", w.name, n)
		}
	}
	return rep, nil
}

// setPhase turns a measured phase into the end-to-end metrics.
func setPhase(rep *report, ph phase) error {
	if len(ph.latMs) == 0 || ph.throughput <= 0 {
		return fmt.Errorf("measured phase completed no work")
	}
	lat := sorted(ph.latMs)
	rep.setE2E("throughput_per_s", ph.throughput, nil)
	rep.setE2E("latency_p50_ms", pctile(lat, 0.50), ph.latMs)
	rep.setE2E("latency_p99_ms", pctile(lat, 0.99), nil)
	rep.setE2E("slot_inflation", ph.slotInflation, nil)
	rep.layer("loadgen.samples", float64(len(lat)))
	return nil
}

// names returns m's keys sorted.
func names[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// commit names the measured source: the git HEAD of the checkout when
// it is a git work tree (a .git directory, or the .git file of a linked
// worktree), else "unknown". Without .git no git command runs.
func commit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
