package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// pctile is the nearest-rank q-quantile of ascending raw samples: the
// smallest sample with at least q·n samples at or below it. It
// interpolates nothing, so p99 of 1000 samples is the 990th.
func pctile(asc []float64, q float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(asc)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(asc) {
		i = len(asc) - 1
	}
	return asc[i]
}

// quartiles returns the three cut points of xs into four groups, as
// Python's statistics.quantiles(xs, n=4) computes them (the default
// "exclusive" method). With fewer than two samples all three are the
// one sample.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := sorted(xs)
	n := len(d)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	m := n + 1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// median is the middle of xs (the mean of the two middle samples for an
// even count).
func median(xs []float64) float64 {
	d := sorted(xs)
	n := len(d)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return d[n/2]
	}
	return (d[n/2-1] + d[n/2]) / 2
}

// spread is the interquartile range of xs as a share of its median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		if q3 == q1 {
			return 0
		}
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(q2)
}

// maxRecordSamples caps the raw samples a run record keeps per metric;
// longer series keep evenly spaced order statistics.
const maxRecordSamples = 2000

// series is one metric of a run: its value and the raw samples behind
// it, with their count, median and quartiles.
type series struct {
	Unit    string    `json:"unit"`
	Value   float64   `json:"value"`
	N       int       `json:"n"`
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	Samples []float64 `json:"samples,omitempty"`
	// Thinned is set when Samples holds every k-th order statistic of
	// the N raw samples rather than all of them.
	Thinned int `json:"thinned,omitempty"`
}

func newSeries(unit string, v float64, samples []float64) *series {
	s := &series{Unit: unit, Value: v, N: len(samples)}
	if len(samples) == 0 {
		return s
	}
	s.Q1, s.Median, s.Q3 = quartiles(samples)
	if len(samples) <= maxRecordSamples {
		s.Samples = append([]float64(nil), samples...)
		return s
	}
	asc := sorted(samples)
	k := (len(asc) + maxRecordSamples - 1) / maxRecordSamples
	for i := 0; i < len(asc); i += k {
		s.Samples = append(s.Samples, asc[i])
	}
	s.Thinned = k
	return s
}

// pairWins counts the pairs, runs made in alternating order, in which
// the change reads strictly better than the parent; ties count for
// neither side.
func pairWins(parent, change []float64, higherBetter bool) int {
	wins := 0
	for i := 0; i < len(parent) && i < len(change); i++ {
		if (higherBetter && change[i] > parent[i]) || (!higherBetter && change[i] < parent[i]) {
			wins++
		}
	}
	return wins
}

// isGain reports whether the change's runs show a gain over the
// parent's: at least ten pairs, wins in at least nine tenths of them, and
// medians further apart, in the better direction, than the parent's
// interquartile range.
func isGain(parent, change []float64, higherBetter bool) bool {
	pairs := min(len(parent), len(change))
	if pairs < 10 || pairWins(parent, change, higherBetter)*10 < pairs*9 {
		return false
	}
	q1, mp, q3 := quartiles(parent)
	gap := median(change) - mp
	if !higherBetter {
		gap = -gap
	}
	return gap > q3-q1
}

// heapPeak samples the live heap (as of the last garbage collection)
// every few milliseconds. Its figure is the level the live heap stays
// under for 95% of the sampled time: a near-peak that one ill-timed
// collection does not move.
type heapPeak struct {
	mu      sync.Mutex
	samples []float64
	done    chan struct{}
	wg      sync.WaitGroup
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{done: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			if s[0].Value.Kind() == metrics.KindUint64 {
				h.mu.Lock()
				h.samples = append(h.samples, float64(s[0].Value.Uint64()))
				h.mu.Unlock()
			}
			select {
			case <-h.done:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// reset forgets the samples so far.
func (h *heapPeak) reset() {
	h.mu.Lock()
	h.samples = h.samples[:0]
	h.mu.Unlock()
}

// stop ends sampling and returns the near-peak in MiB.
func (h *heapPeak) stop() float64 {
	select {
	case <-h.done:
	default:
		close(h.done)
	}
	h.wg.Wait()
	h.mu.Lock()
	defer h.mu.Unlock()
	return pctile(sorted(h.samples), 0.95) / (1 << 20)
}
