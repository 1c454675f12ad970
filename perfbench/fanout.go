package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sync/atomic"
	"time"

	"tilingsched/internal/service"
)

// The fanout workload is the push plane: one session without
// persistence, one single-event mutation per epoch on a fixed schedule,
// and ~10k subscribers, half JSON and half binary, each a subscribe
// request served in-process into an in-memory flushing writer, so every
// subscriber runs the real per-subscriber encode path without a socket.
// Four of them fully decode their stream and fold it for the checks.

const (
	fanoutSubs     = 10000
	fanoutDecoders = 4
	fanoutSide     = 32
	// fanoutRate is the epoch rate (open loop).
	fanoutRate = 10.0
	// fanoutDrain bounds the wait for the last epoch to reach every
	// subscriber after a phase ends.
	fanoutDrain = 10 * time.Second
)

var fanoutPlan = service.PlanSpec{Tile: service.TileSpec{Name: "cross:2:1"}}

// fanoutSub is one subscriber's observations.
type fanoutSub struct {
	sub  *subscriber
	bin  bool
	row  []float32 // receipt − due per epoch, ms (NaN until received)
	last atomic.Uint64
	gaps int
	size int64
	n    int64
}

type fanoutInst struct {
	rep    *report
	srv    *service.Server
	probe  *service.Server
	sess   *churnSession
	subs   []*fanoutSub
	epochs int
	traced bool
	rate   float64
	lagMax uint64
}

func setupFanout(cfg config, rep *report) (func() (instance, error), error) {
	return func() (instance, error) { return startFanout(cfg, rep) }, nil
}

func startFanout(cfg config, rep *report) (instance, error) {
	subs, side := fanoutSubs, fanoutSide
	if cfg.small {
		subs, side = 40, 8
	}
	f := &fanoutInst{rep: rep, epochs: int(math.Ceil(fanoutRate*cfg.seconds)) + 8,
		srv:   service.NewServer(service.NewRegistry(4), service.ServerOptions{MaxSubscribers: subs + 1}),
		probe: service.NewServer(service.NewRegistry(4), service.ServerOptions{})}
	lo := [2]int{0, 0}
	f.sess = &churnSession{
		spec:  fanoutPlan,
		win:   service.WindowSpec{Lo: lo[:], Hi: []int{side - 1, side - 1}},
		model: newChurnModel(cfg.seed*131+7, lo, side),
	}
	f.sess.model.size = 1
	body, _ := json.Marshal(service.MutateRequest{Plan: f.sess.spec, Window: f.sess.win, Full: true})
	var initial map[[2]int]int
	for _, s := range []*service.Server{f.srv, f.probe} {
		status, reply, _ := serveInProcess(s, "/v1/plan:mutate", false, body)
		resp, err := decodeMutate(false, status, reply)
		if err != nil {
			f.close()
			return nil, fmt.Errorf("session create: %w", err)
		}
		initial = assignment(resp)
		f.sess.m = resp.M
	}
	req := service.SubscribeRequest{Plan: f.sess.spec, Window: f.sess.win, Epoch: new(uint64)}
	bodies := [2][]byte{subscribeBody(req, false), subscribeBody(req, true)}
	rows := make([]float32, subs*f.epochs)
	for i := range rows {
		rows[i] = float32(math.NaN())
	}
	for i := 0; i < subs; i++ {
		s := &fanoutSub{bin: i%2 == 1, row: rows[i*f.epochs : (i+1)*f.epochs]}
		var fold *streamFold
		if i < fanoutDecoders {
			fold = newStreamFold(s.bin, initial)
		}
		var err error
		s.sub, err = attachSubscriber(f.srv, bodies[b2i(s.bin)], s.bin, fold, f.onDelta(s))
		if err != nil {
			f.close()
			return nil, fmt.Errorf("subscriber %d: %w", i, err)
		}
		f.subs = append(f.subs, s)
	}
	return f, nil
}

func (f *fanoutInst) onDelta(s *fanoutSub) func(uint64, int, time.Time) {
	return func(epoch uint64, size int, at time.Time) {
		if epoch != s.last.Load()+1 {
			s.gaps++
		}
		if epoch >= 1 && int(epoch) <= len(s.row) {
			s.row[epoch-1] = float32(float64(at.UnixNano()-f.sess.log.get(epoch).due) / 1e6)
		}
		s.size += int64(size)
		s.n++
		s.last.Store(epoch)
	}
}

func (f *fanoutInst) measure(seconds float64, traced bool) (phase, error) {
	cs := f.sess
	first := cs.epoch + 1
	start := time.Now()
	n := int(seconds * fanoutRate)
	var ack, late, probe []float64
	for k := 0; k < n && int(cs.epoch) < f.epochs; k++ {
		due := start.Add(time.Duration(float64(k) / fanoutRate * float64(time.Second)))
		time.Sleep(time.Until(due))
		// Queue depth as the subscribers see it: epochs published but
		// not yet written out.
		for _, s := range f.subs {
			if lag := cs.epoch - s.last.Load(); lag > f.lagMax {
				f.lagMax = lag
			}
		}
		body, _, err := cs.encode(false, false)
		if err != nil {
			return phase{}, err
		}
		cs.log.set(cs.epoch+1, due.UnixNano(), int32(cs.model.aliveCount()))
		late = append(late, float64(time.Since(due))/1e6)
		status, reply, _ := serveInProcess(f.srv, "/v1/plan:mutate", false, body)
		acked := time.Now()
		resp, err := decodeMutate(false, status, reply)
		cs.epoch++
		f.rep.op(err == nil && resp.Epoch == cs.epoch && resp.Alive == cs.model.aliveCount(),
			"fanout mutate: epoch %d (want %d), alive %d (want %d): %v", resp.Epoch, cs.epoch, resp.Alive, cs.model.aliveCount(), err)
		cs.m = resp.M
		ack = append(ack, float64(acked.Sub(due))/1e6)
		// The probe server, without subscribers, applies every epoch's
		// mutate too, so its session stays at the same epoch and state.
		code, _, t := serveInProcess(f.probe, "/v1/plan:mutate", false, body)
		f.rep.op(code == http.StatusOK, "fanout probe mutate: status %d", code)
		probe = append(probe, float64(t)/1e6)
	}
	last := cs.epoch
	for deadline := time.Now().Add(fanoutDrain); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		behind := false
		for _, s := range f.subs {
			if s.last.Load() < last {
				behind = true
				break
			}
		}
		if !behind {
			break
		}
	}
	elapsed := time.Since(start).Seconds()
	var lat []float64
	var spans []float64
	delivered := 0
	for e := first; e <= last; e++ {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, s := range f.subs {
			v := float64(s.row[e-1])
			if math.IsNaN(v) {
				continue
			}
			lat = append(lat, v)
			lo, hi = math.Min(lo, v), math.Max(hi, v)
			delivered++
		}
		if hi >= lo {
			spans = append(spans, hi-lo)
		}
	}
	ph := phase{throughput: float64(delivered) / elapsed, latMs: lat, ops: int64(delivered),
		slotInflation: float64(cs.m) / float64(tileSize(cs.spec))}
	if traced {
		f.traced = true
		f.rep.layerSamples("service.subscribe.fanout_span_ms", median(spans), spans)
		asc := sorted(lat)
		f.rep.layer("service.subscribe.propagation_p50_ms", pctile(asc, 0.5))
		f.rep.layer("service.subscribe.propagation_p99_ms", pctile(asc, 0.99))
		f.rep.layer("service.sessions.ack_p99_ms", pctile(sorted(ack), 0.99))
		f.rep.layerSamples("service.sessions.mutate_ns", median(probe)*1e6, probe)
		publish := make([]float64, len(ack))
		for i := range ack {
			publish[i] = ack[i] - late[i] - probe[i]
		}
		f.rep.layerSamples("service.subscribe.publish_ns", median(publish)*1e6, publish)
		f.rep.layer("loadgen.late_p99_ms", pctile(sorted(late), 0.99))
	}
	return ph, nil
}

func (f *fanoutInst) finish() error {
	cs := f.sess
	body, _ := json.Marshal(service.MutateRequest{Plan: cs.spec, Window: cs.win, Full: true})
	status, reply, _ := serveInProcess(f.srv, "/v1/plan:mutate", false, body)
	final, err := decodeMutate(false, status, reply)
	if err != nil {
		f.rep.op(false, "fanout final read: %v", err)
		return nil
	}
	f.rep.op(final.Epoch == cs.epoch, "fanout: final epoch %d, want %d", final.Epoch, cs.epoch)
	verr := verifyAssignment(cs.spec, final)
	f.rep.op(verr == nil, "fanout: final assignment not collision-free: %v", verr)
	want := assignment(final)
	var bytes, deltas [2]int64
	for _, s := range f.subs {
		s.sub.stop()
		w := s.sub.w
		f.rep.op(s.gaps == 0 && w.byes == 0 && w.errs == 0 && s.last.Load() == cs.epoch,
			"fanout subscriber (bin=%v): %d gaps, %d byes, %d bad elements, last epoch %d of %d",
			s.bin, s.gaps, w.byes, w.errs, s.last.Load(), cs.epoch)
		bytes[b2i(s.bin)] += s.size
		deltas[b2i(s.bin)] += s.n
		checkStreamFold(f.rep, w.fold, want, cs.epoch)
	}
	if f.traced {
		for i, name := range []string{"service.subscribe.json.bytes_per_delta", "service.subscribe.bin.bytes_per_delta"} {
			if deltas[i] > 0 {
				f.rep.layer(name, float64(bytes[i])/float64(deltas[i]))
			}
		}
		f.rep.layer("service.subscribe.drops", float64(f.srv.Snapshot().Sessions.SubscriberDrops))
		f.rep.layer("service.subscribe.queue_max", float64(f.lagMax))
	}
	return nil
}

func (f *fanoutInst) close() {
	for _, s := range f.subs {
		s.sub.stop()
	}
}
