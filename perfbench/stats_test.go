package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPctileNearestRank(t *testing.T) {
	asc := make([]float64, 1000)
	for i := range asc {
		asc[i] = float64(i + 1)
	}
	for _, c := range []struct{ q, want float64 }{
		{0.5, 500}, {0.99, 990}, {0.999, 999}, {1, 1000}, {0, 1},
	} {
		if got := pctile(asc, c.q); got != c.want {
			t.Errorf("pctile(1..1000, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := pctile([]float64{7}, 0.99); got != 7 {
		t.Errorf("pctile of one sample = %v", got)
	}
	if got := pctile(nil, 0.5); got != 0 {
		t.Errorf("pctile of no samples = %v", got)
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 5, 9.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{2, 4}, 1.5, 3, 4.5},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 5.5/5.5) {
		t.Errorf("spread = %v, want 1", got)
	}
}

func TestPairWinRule(t *testing.T) {
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	faster := []float64{90, 91, 89, 90, 92, 88, 90, 91, 89, 101}
	if w := pairWins(parent, faster, true); w != 1 {
		t.Errorf("higher-is-better wins = %d, want 1", w)
	}
	if w := pairWins(parent, faster, false); w != 9 {
		t.Errorf("lower-is-better wins = %d, want 9", w)
	}
	if !isGain(parent, faster, false) {
		t.Error("9/10 wins with a gap above the parent's IQR should be a gain")
	}
	tied := append([]float64(nil), faster...)
	tied[0] = parent[0]
	if isGain(parent, tied, false) {
		t.Error("a tie counts for neither side: 8/10 wins is not a gain")
	}
	if isGain(parent[:9], faster[:9], false) {
		t.Error("fewer than ten pairs cannot show a gain")
	}
	close := []float64{99.5, 100.5, 98.5, 99.5, 101.5, 97.5, 99.5, 100.5, 98.5, 99.5}
	if isGain(parent, close, false) {
		t.Error("a median gap inside the parent's IQR is not a gain")
	}
}

func TestVerdict(t *testing.T) {
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	slower := []float64{130, 131, 129, 130, 132, 128, 130, 131, 129, 130}
	if v := verdict(parent, slower, false, 0.1); v != "regression" {
		t.Errorf("30%% slower with bound 10%% = %s", v)
	}
	if v := verdict(parent, parent, false, 0.1); v != "unchanged" {
		t.Errorf("same runs = %s", v)
	}
	noisy := []float64{50, 150, 80, 120, 100, 60, 140, 90, 110, 100}
	if v := verdict(parent, noisy, false, 0.1); v != "unresolved" {
		t.Errorf("spread wider than the bound = %s", v)
	}
	if v := verdict(parent, []float64{90, 91, 89, 90, 92, 88, 90, 91, 89, 90}, false, 0.1); v != "gain" {
		t.Errorf("clear gain = %s", v)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metric tables in step.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.EndToEnd) != len(e2eUnits) || len(spec.PerLayer) != len(layerUnits) {
		t.Fatalf("BENCHMARK.json has %d end-to-end and %d per-layer metrics, the program %d and %d",
			len(spec.EndToEnd), len(spec.PerLayer), len(e2eUnits), len(layerUnits))
	}
	for _, m := range spec.EndToEnd {
		if e2eUnits[m.Name] != m.Unit || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %s: unit %q (program %q), bound %v", m.Name, m.Unit, e2eUnits[m.Name], m.Bound)
		}
	}
	for _, m := range spec.PerLayer {
		if layerUnits[m.Name] != m.Unit {
			t.Errorf("per-layer %s: unit %q, program %q", m.Name, m.Unit, layerUnits[m.Name])
		}
	}
}
