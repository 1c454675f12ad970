package main

import (
	"testing"
)

// TestWorkloadsSmoke runs every workload at a tiny size, untraced and
// traced, and checks that it passes its own output checks and reports
// every metric.
func TestWorkloadsSmoke(t *testing.T) {
	scratchDir = t.TempDir()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			rep, err := runWorkload(w, config{seed: 3, seconds: 0.4, small: true}, traced)
			if err != nil {
				t.Fatalf("%s (traced %v): %v", w.name, traced, err)
			}
			if rep.failed.Load() != 0 || rep.attempted.Load() == 0 {
				t.Errorf("%s (traced %v): %d of %d operations failed: %v",
					w.name, traced, rep.failed.Load(), rep.attempted.Load(), rep.notes)
			}
			want, got := e2eUnits, rep.e2e
			if traced {
				want, got = layerUnits, rep.layers
			}
			for name := range want {
				if _, ok := got[name]; !ok {
					t.Errorf("%s (traced %v): no %s", w.name, traced, name)
				}
			}
		}
	}
}
