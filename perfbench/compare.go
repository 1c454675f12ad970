package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
)

// benchSpec is the part of BENCHMARK.json the benchmark reads.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	EndToEnd   []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// compareRow is one workload × metric line of a comparison. Parent and
// Change hold the per-run values (raw samples of the set of runs) in
// pair order.
type compareRow struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Unit     string    `json:"unit"`
	Better   string    `json:"better"`
	Bound    float64   `json:"bound,omitempty"`
	Parent   sideStats `json:"parent"`
	Change   sideStats `json:"change"`
	Pairs    int       `json:"pairs"`
	Wins     int       `json:"change_wins"`
	Verdict  string    `json:"verdict"`
}

type sideStats struct {
	Samples []float64 `json:"samples"`
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
}

func newSide(xs []float64) sideStats {
	q1, q2, q3 := quartiles(xs)
	return sideStats{Samples: xs, Median: q2, Q1: q1, Q3: q3}
}

// verdict applies the comparison rules to one end-to-end metric (bound
// > 0) or per-layer metric (bound 0, which can only read gain or
// unchanged):
//
//   - unresolved: either side's interquartile range, as a share of its
//     median, is wider than the bound, unless every change run reads
//     better than every parent run;
//   - regression: the change's median is worse than the parent's by more
//     than the bound;
//   - gain: the pair-win rule (isGain) holds;
//   - unchanged otherwise.
func verdict(parent, change []float64, higherBetter bool, bound float64) string {
	mp, mc := median(parent), median(change)
	worse := (mp - mc) / math.Abs(mp)
	if !higherBetter {
		worse = -worse
	}
	if mp == 0 {
		worse = 0
	}
	allBetter := len(parent) > 0 && len(change) > 0
	for _, c := range change {
		for _, p := range parent {
			if (higherBetter && c <= p) || (!higherBetter && c >= p) {
				allBetter = false
			}
		}
	}
	switch {
	case bound > 0 && (spread(parent) > bound || spread(change) > bound) && !allBetter:
		return "unresolved"
	case bound > 0 && worse > bound:
		return "regression"
	case isGain(parent, change, higherBetter):
		return "gain"
	}
	return "unchanged"
}

// readBenchSpec reads BENCHMARK.json in the working directory, the
// repository root.
func readBenchSpec() (benchSpec, error) {
	var spec benchSpec
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return spec, err
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return spec, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if spec.RunSeconds <= 0 {
		return spec, fmt.Errorf("BENCHMARK.json: run_seconds %d", spec.RunSeconds)
	}
	return spec, nil
}

// runCompare compares two directories of run records, one row per
// workload × metric. Runs pair up by seed, in the order they were made.
func runCompare(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	parentDir := fs.String("parent", "", "directory of the parent's run records")
	changeDir := fs.String("change", "", "directory of the change's run records")
	out := fs.String("out", "", "also write the rows as JSON to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *parentDir == "" || *changeDir == "" {
		return fmt.Errorf("need --parent and --change")
	}
	spec, err := readBenchSpec()
	if err != nil {
		return err
	}
	parent, err := readRecords(*parentDir)
	if err != nil {
		return err
	}
	change, err := readRecords(*changeDir)
	if err != nil {
		return err
	}
	rows := compareRecords(spec, parent, change)
	fmt.Printf("%-8s %-40s %12s %12s %8s %6s %7s  %s\n", "workload", "metric", "parent", "change", "delta", "wins", "spread", "verdict")
	for _, r := range rows {
		delta := 0.0
		if r.Parent.Median != 0 {
			delta = (r.Change.Median - r.Parent.Median) / math.Abs(r.Parent.Median) * 100
		}
		fmt.Printf("%-8s %-40s %12.4g %12.4g %+7.1f%% %3d/%-2d %6.1f%%  %s\n", r.Workload, r.Metric,
			r.Parent.Median, r.Change.Median, delta, r.Wins, r.Pairs,
			100*math.Max(spread(r.Parent.Samples), spread(r.Change.Samples)), r.Verdict)
	}
	if *out != "" {
		data, err := json.MarshalIndent(rows, "", " ")
		if err != nil {
			return err
		}
		return os.WriteFile(*out, append(data, '\n'), 0o644)
	}
	return nil
}

func compareRecords(spec benchSpec, parent, change []runRecord) []compareRow {
	type metricDef struct {
		name, unit, better string
		bound              float64
		traced             bool
	}
	var defs []metricDef
	for _, m := range spec.EndToEnd {
		defs = append(defs, metricDef{m.Name, m.Unit, m.Better, m.Bound, false})
	}
	for _, m := range spec.PerLayer {
		defs = append(defs, metricDef{m.Name, m.Unit, m.Better, 0, true})
	}
	order := func(rs []runRecord) {
		sort.SliceStable(rs, func(i, j int) bool {
			if rs[i].Seed != rs[j].Seed {
				return rs[i].Seed < rs[j].Seed
			}
			return rs[i].Time.Before(rs[j].Time)
		})
	}
	order(parent)
	order(change)
	workloadsSeen := map[string]bool{}
	for _, r := range parent {
		workloadsSeen[r.Workload] = true
	}
	var rows []compareRow
	for _, w := range names(workloadsSeen) {
		for _, d := range defs {
			values := func(rs []runRecord) []float64 {
				var xs []float64
				for _, r := range rs {
					if s, ok := r.Metrics[d.name]; ok && r.Workload == w && r.Trace == d.traced {
						xs = append(xs, s.Value)
					}
				}
				return xs
			}
			p, c := values(parent), values(change)
			if len(p) == 0 || len(c) == 0 || (d.traced && median(p) == 0 && median(c) == 0) {
				continue
			}
			higher := d.better == "higher"
			rows = append(rows, compareRow{
				Workload: w, Metric: d.name, Unit: d.unit, Better: d.better, Bound: d.bound,
				Parent: newSide(p), Change: newSide(c),
				Pairs: min(len(p), len(c)), Wins: pairWins(p, c, higher),
				Verdict: verdict(p, c, higher, d.bound),
			})
		}
	}
	return rows
}
