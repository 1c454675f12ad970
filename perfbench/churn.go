package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"tilingsched/internal/core"
	"tilingsched/internal/dynamic"
	"tilingsched/internal/lattice"
	"tilingsched/internal/schedule"
	"tilingsched/internal/service"
	"tilingsched/internal/service/binwire"
	"tilingsched/internal/tiling"
)

// The churn workload is the write path: four persistent mutation
// sessions of ~16k sensors each, driven first by an open loop of mutates
// at a fixed rate and then by a closed loop of two connections, where
// one request in sixteen is a full snapshot read. Two subscribers per
// session (one JSON, one binary) fold every delta. The closed loop gives
// the end-to-end numbers; the open loop's acknowledgement times, taken
// from each request's due time, tracked the CPU time the hypervisor
// steals from a 2-core x86 VM (p99 from 2 to 14 ms as the steal share
// went from 1% to 15%), so they are reported as a per-layer metric.

const (
	churnSessions = 4
	churnSide     = 128 // window side: 16384 sensors per session
	churnMargin   = 4   // events reach this far outside the window
	churnBatch    = 8   // events per mutate batch
	churnReadEach = 16  // one request in this many is a full:true read
	churnBurstOne = 256 // one batch in this many is a local join burst
	// churnRate is the open-loop mutate rate, all sessions together:
	// about a third of one connection's sequential capacity.
	churnRate = 1200.0
	// churnOpenShare of the measured time runs the open loop; the rest
	// is the closed-loop phase, which gives the end-to-end numbers.
	churnOpenShare = 0.4
	churnMaxEpochs = 1 << 18
	// epochChunk is how many epochs one chunk of an epochLog holds.
	epochChunk = 4096
	// churnWarmBursts join bursts per session run during set-up: the
	// first bursts exhaust the Theorem-1 palette and force full
	// recolors that float the colour budget up, a one-off transient
	// that would otherwise land in the measured phase.
	churnWarmBursts = 16
)

// scratchDir holds the workloads' temporary data directories.
var scratchDir = ".bench_build/tmp"

// churnPlans are the sessions' plans. Chebyshev sessions were left out:
// about once in 20k batches one of their ordinary batches falls through
// to a 50 ms full recolor of all 16k sensors, which made the open-loop
// p99 and slot_inflation bimodal from run to run.
var churnPlans = []service.PlanSpec{
	{Tile: service.TileSpec{Name: "cross:2:1"}},
	{Lattice: "hexagonal", Tile: service.TileSpec{Name: "ball:1"}},
}

// churnModel is the benchmark's own copy of one session's deployment:
// which cells of the window plus margin host a sensor. Events are drawn
// from it so that none can fail. Ordinary batches keep sensors inside
// the window (joins revive empty window positions, moves stay in the
// window); the margin only fills through bursts.
type churnModel struct {
	rng *rand.Rand
	// size is the events per batch; bursts are off when it is 1.
	size    int
	batches int
	lo      [2]int
	side    int
	span    int
	target  int
	alive   []bool
	// lists[alive][inWindow] hold the cells in each state; pos[c]
	// indexes cell c in its list.
	lists [2][2][]int32
	pos   []int32
}

func newChurnModel(seed int64, lo [2]int, side int) *churnModel {
	span := side + 2*churnMargin
	m := &churnModel{rng: rand.New(rand.NewSource(seed)), size: churnBatch, lo: lo, side: side, span: span,
		target: side * side, alive: make([]bool, span*span), pos: make([]int32, span*span)}
	for c := range m.alive {
		m.alive[c] = m.inWindow(int32(c))
		m.add(int32(c))
	}
	return m
}

func (m *churnModel) inWindow(c int32) bool {
	x, y := int(c)%m.span-churnMargin, int(c)/m.span-churnMargin
	return x >= 0 && y >= 0 && x < m.side && y < m.side
}

func (m *churnModel) list(c int32) *[]int32 {
	return &m.lists[b2i(m.alive[c])][b2i(m.inWindow(c))]
}

func (m *churnModel) add(c int32) {
	l := m.list(c)
	m.pos[c] = int32(len(*l))
	*l = append(*l, c)
}

func (m *churnModel) set(c int32, alive bool) {
	l := m.list(c)
	i := m.pos[c]
	last := (*l)[len(*l)-1]
	(*l)[i] = last
	m.pos[last] = i
	*l = (*l)[:len(*l)-1]
	m.alive[c] = alive
	m.add(c)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func (m *churnModel) point(c int32) []int {
	return []int{m.lo[0] - churnMargin + int(c)%m.span, m.lo[1] - churnMargin + int(c)/m.span}
}

// pickIn returns a random cell of the given state and region.
func (m *churnModel) pickIn(alive, inWindow bool) int32 {
	l := m.lists[b2i(alive)][b2i(inWindow)]
	return l[m.rng.Intn(len(l))]
}

// pickAlive returns a random live cell, window or margin.
func (m *churnModel) pickAlive() int32 {
	in, out := m.lists[1][1], m.lists[1][0]
	i := m.rng.Intn(len(in) + len(out))
	if i < len(in) {
		return in[i]
	}
	return out[i-len(in)]
}

func (m *churnModel) aliveCount() int { return len(m.lists[1][0]) + len(m.lists[1][1]) }

// batch draws the next batch of events and applies it to the model.
// Every churnBurstOne-th batch joins a run of three cells in the margin,
// next to the window's edge sensors, which exhausts the palette locally
// and forces repair escalation; the fixed period keeps the number of
// bursts in a phase the same on every seed.
func (m *churnModel) batch() []service.EventSpec {
	m.batches++
	return m.draw(m.size > 1 && m.batches%churnBurstOne == 0)
}

// draw draws a burst batch when burst is set, a mixed batch otherwise.
func (m *churnModel) draw(burst bool) []service.EventSpec {
	var evs []service.EventSpec
	if burst && len(m.lists[0][0]) > 0 {
		c := m.pickIn(false, false)
		cx, cy := int(c)%m.span, int(c)/m.span
		for dx := -1; dx <= 1; dx++ {
			x := cx + dx
			if x < 0 || x >= m.span {
				continue
			}
			if n := int32(cy*m.span + x); !m.alive[n] && !m.inWindow(n) {
				m.set(n, true)
				evs = append(evs, service.EventSpec{Op: "join", P: m.point(n)})
			}
		}
		return evs
	}
	for len(evs) < m.size {
		// Joins lean against the drift so the live count stays near the
		// window size.
		pJoin := 35 - (m.aliveCount()-m.target)/32
		r := m.rng.Intn(100)
		switch {
		case r < pJoin && len(m.lists[0][1]) > 0:
			c := m.pickIn(false, true)
			m.set(c, true)
			evs = append(evs, service.EventSpec{Op: "join", P: m.point(c)})
		case r < pJoin+25:
			c := m.pickAlive()
			m.set(c, false)
			evs = append(evs, service.EventSpec{Op: "leave", P: m.point(c)})
		case r < pJoin+35:
			c := m.pickAlive()
			m.set(c, false)
			evs = append(evs, service.EventSpec{Op: "fail", P: m.point(c)})
		case len(m.lists[0][1]) > 0:
			c := m.pickIn(true, true)
			to := int32(-1)
			for try := 0; try < 4 && to < 0; try++ {
				x, y := int(c)%m.span+m.rng.Intn(5)-2, int(c)/m.span+m.rng.Intn(5)-2
				n := int32(y*m.span + x)
				if x >= 0 && y >= 0 && x < m.span && y < m.span && !m.alive[n] && m.inWindow(n) {
					to = n
				}
			}
			if to < 0 {
				to = m.pickIn(false, true)
			}
			m.set(c, false)
			m.set(to, true)
			evs = append(evs, service.EventSpec{Op: "move", P: m.point(c), To: m.point(to)})
		}
	}
	return evs
}

// churnSession is one mutation session as the load generator sees it.
type churnSession struct {
	spec  service.PlanSpec
	win   service.WindowSpec
	bin   bool
	model *churnModel
	epoch uint64
	reqs  int
	m     int
	log   epochLog
	// current is epoch, for readers beside the writer.
	current atomic.Uint64
	// tracing is set while a traced phase runs; only then do the
	// subscribers keep propagation samples.
	tracing atomic.Bool
	subs    []*churnSub
}

// epochLog holds, per epoch of a session, when the mutate producing it
// was due (UnixNano) and the live count it leaves. It allocates a chunk
// of epochChunk entries as the run reaches it, so its memory follows the
// epochs a run makes. The writer sets an epoch's entry before it sends
// the mutate, which orders the store before a subscriber's get.
type epochLog struct {
	chunks [churnMaxEpochs / epochChunk]*epochChunkData
}

type epochChunkData struct {
	due   [epochChunk]int64
	alive [epochChunk]int32
}

type epochEntry struct {
	due   int64
	alive int32
}

func (l *epochLog) set(e uint64, due int64, alive int32) {
	c := &l.chunks[e/epochChunk]
	if *c == nil {
		*c = new(epochChunkData)
	}
	(*c).due[e%epochChunk], (*c).alive[e%epochChunk] = due, alive
}

func (l *epochLog) get(e uint64) epochEntry {
	if c := l.chunks[e/epochChunk]; c != nil {
		return epochEntry{due: c.due[e%epochChunk], alive: c.alive[e%epochChunk]}
	}
	return epochEntry{}
}

// churnSub is one subscriber of a session and what it observed.
type churnSub struct {
	sub       *subscriber
	bin       bool
	last      uint64
	gaps      int
	propMs    []float64
	sess      *churnSession
	deltaSize int64
}

// encode makes a full read, a burst batch or a drawn batch.
func (cs *churnSession) encode(read, burst bool) ([]byte, []service.EventSpec, error) {
	req := service.MutateRequest{Plan: cs.spec, Window: cs.win}
	switch {
	case read:
		req.Full = true
	case burst:
		req.Events = cs.model.draw(true)
	default:
		req.Events = cs.model.batch()
	}
	if !read {
		e := cs.epoch
		req.Epoch = &e
	}
	if cs.bin {
		e := binwire.Get()
		defer binwire.Put(e)
		if err := service.EncodeMutateBinary(e, req, ""); err != nil {
			return nil, nil, err
		}
		return slices.Clone(e.Bytes()), req.Events, nil
	}
	b, err := json.Marshal(req)
	return b, req.Events, err
}

// decodeMutate parses a mutate reply in the session's codec.
func decodeMutate(bin bool, status int, body []byte) (service.MutateResponse, error) {
	var resp service.MutateResponse
	if status != http.StatusOK {
		return resp, fmt.Errorf("status %d: %.200s", status, body)
	}
	var err error
	if bin {
		resp, err = service.DecodeMutateStream(body)
	} else {
		err = json.Unmarshal(body, &resp)
	}
	return resp, err
}

// decodeRead reads a full read's epoch, live count and number of
// entries. JSON replies are scanned rather than decoded: decoding 16k
// entries would cost the client more than the server spends answering.
func decodeRead(bin bool, status int, body []byte) (epoch uint64, alive, changed int, err error) {
	if bin || status != http.StatusOK {
		resp, err := decodeMutate(bin, status, body)
		return resp.Epoch, resp.Alive, len(resp.Changed), err
	}
	e, ok1 := jsonUint(body, `"epoch":`)
	a, ok2 := jsonUint(body, `"alive":`)
	if !ok1 || !ok2 {
		return 0, 0, 0, fmt.Errorf("read reply without epoch or alive: %.100s", body)
	}
	return e, int(a), bytes.Count(body, []byte(`"slot":`)), nil
}

// jsonUint reads the unsigned number after the first occurrence of key.
func jsonUint(body []byte, key string) (uint64, bool) {
	i := bytes.Index(body, []byte(key))
	if i < 0 {
		return 0, false
	}
	var v uint64
	n := 0
	for _, c := range body[i+len(key):] {
		if c < '0' || c > '9' {
			break
		}
		v = v*10 + uint64(c-'0')
		n++
	}
	return v, n > 0
}

// assignment turns a full read into a position → slot map.
func assignment(resp service.MutateResponse) map[[2]int]int {
	a := make(map[[2]int]int, len(resp.Changed))
	for _, ch := range resp.Changed {
		a[[2]int{ch.P[0], ch.P[1]}] = ch.Slot
	}
	return a
}

type churnInst struct {
	cfg      config
	rep      *report
	srv      *service.Server
	lb       *loopback
	dir      string
	sessions []*churnSession
	probe    *churnProbe
	// rate is the open-loop request rate (smaller for smoke runs).
	rate   float64
	side   int
	traced bool
}

func setupChurn(cfg config, rep *report) (func() (instance, error), error) {
	return func() (instance, error) { return startChurn(cfg, rep) }, nil
}

func startChurn(cfg config, rep *report) (instance, error) {
	side, rate := churnSide, churnRate
	if cfg.small {
		side, rate = 16, 200
	}
	if err := os.MkdirAll(scratchDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(scratchDir, "churn-")
	if err != nil {
		return nil, err
	}
	c := &churnInst{cfg: cfg, rep: rep, dir: dir, rate: rate, side: side,
		srv: service.NewServer(service.NewRegistry(service.DefaultRegistryCapacity), service.ServerOptions{})}
	if err := c.srv.EnablePersistence(service.PersistOptions{Dir: filepath.Join(dir, "main"), SnapshotEvery: -1}); err != nil {
		c.close()
		return nil, err
	}
	if c.lb, err = startLoopback(c.srv, 2); err != nil {
		c.close()
		return nil, err
	}
	for i := 0; i < churnSessions; i++ {
		lo := [2]int{(i / 2) * 1000, 0}
		cs := &churnSession{
			spec:  churnPlans[i%2],
			win:   service.WindowSpec{Lo: lo[:], Hi: []int{lo[0] + side - 1, lo[1] + side - 1}},
			bin:   i%2 == 1,
			model: newChurnModel(cfg.seed*131+int64(i), lo, side),
		}
		cs.log.set(0, 0, int32(side*side))
		c.sessions = append(c.sessions, cs)
		body, _, err := cs.encode(true, false)
		if err != nil {
			c.close()
			return nil, err
		}
		status, reply, err := c.lb.post("/v1/plan:mutate", cs.bin, body)
		if err != nil {
			c.close()
			return nil, err
		}
		resp, err := decodeMutate(cs.bin, status, reply)
		if err != nil || resp.Epoch != 0 || resp.Alive != side*side {
			c.close()
			return nil, fmt.Errorf("session %d create: epoch %d alive %d: %v", i, resp.Epoch, resp.Alive, err)
		}
		cs.m = resp.M
		for _, bin := range []bool{false, true} {
			sub := &churnSub{bin: bin, sess: cs}
			req := service.SubscribeRequest{Plan: cs.spec, Window: cs.win, Epoch: new(uint64)}
			// Only the first session's subscribers fold their streams:
			// each fold holds a copy of the session's assignment, which
			// is the benchmark's own memory in heap_peak_mb.
			var fold *streamFold
			if i == 0 {
				fold = newStreamFold(bin, assignment(resp))
			}
			s, err := attachSubscriber(c.srv, subscribeBody(req, bin), bin, fold, sub.onDelta)
			if err != nil {
				c.close()
				return nil, err
			}
			sub.sub = s
			cs.subs = append(cs.subs, sub)
		}
	}
	var st churnStats
	for i := 0; i < churnWarmBursts; i++ {
		for _, cs := range c.sessions {
			c.issue(cs, time.Now(), false, reqBurst, &st)
		}
	}
	return c, nil
}

// subscribeBody encodes a subscribe request in either codec.
func subscribeBody(req service.SubscribeRequest, bin bool) []byte {
	if bin {
		e := binwire.Get()
		defer binwire.Put(e)
		service.EncodeSubscribeBinary(e, req, "")
		return slices.Clone(e.Bytes())
	}
	b, _ := json.Marshal(req)
	return b
}

func (s *churnSub) onDelta(epoch uint64, size int, at time.Time) {
	if epoch != s.last+1 {
		s.gaps++
	}
	s.last = epoch
	s.deltaSize += int64(size)
	if epoch < churnMaxEpochs && s.sess.tracing.Load() {
		s.propMs = append(s.propMs, float64(at.UnixNano()-s.sess.log.get(epoch).due)/1e6)
	}
}

// churnStats is what the issuing goroutines measured. ackMs are mutate
// acknowledgements, timed from the due time in the open loop and from
// the send in the closed loop.
type churnStats struct {
	ackMs, lateMs []float64
	events        int64
	batches       int64
	// reassigned and fullRecolors come from the acknowledged
	// disruption reports.
	reassigned, fullRecolors int64
}

func (c *churnInst) measure(seconds float64, traced bool) (phase, error) {
	if traced && c.probe == nil {
		var err error
		if c.probe, err = newChurnProbe(c.cfg, c.rep, c.dir, c.side); err != nil {
			return phase{}, err
		}
		c.traced = true
	}
	for _, cs := range c.sessions {
		cs.tracing.Store(traced)
	}
	open := seconds * churnOpenShare
	st := c.run(time.Duration(open*float64(time.Second)), c.rate, traced)
	capSt := c.run(time.Duration((seconds-open)*float64(time.Second)), 0, traced)
	ph := phase{throughput: float64(capSt.events) / (seconds - open), latMs: capSt.ackMs, ops: st.batches + capSt.batches}
	for _, cs := range c.sessions {
		ph.slotInflation += float64(cs.m) / float64(tileSize(cs.spec)) / float64(len(c.sessions))
	}
	if traced {
		c.rep.layer("loadgen.late_p99_ms", pctile(sorted(st.lateMs), 0.99))
		c.rep.layer("service.sessions.ack_p99_ms", pctile(sorted(st.ackMs), 0.99))
		events, batches := float64(st.events+capSt.events), float64(st.batches+capSt.batches)
		c.rep.layer("dynamic.reassigned_per_event", float64(st.reassigned+capSt.reassigned)/events)
		c.rep.layer("dynamic.full_recolor_ratio", float64(st.fullRecolors+capSt.fullRecolors)/batches)
		c.probe.layers(c.rep)
		ms, err := compileMs(churnPlans)
		if err != nil {
			return phase{}, err
		}
		c.rep.layer("core.compile_ms", ms)
	}
	return ph, nil
}

// tileSize is |N| of a plan spec.
func tileSize(spec service.PlanSpec) int {
	_, tile, err := spec.Resolve()
	if err != nil {
		return 1
	}
	return tile.Size()
}

// Request kinds of the churn load.
const (
	reqDrawn = iota // the next drawn batch
	reqBurst        // a burst batch
	reqRead         // a full:true read
)

// run drives the sessions for d. Open loop (rate > 0): one goroutine
// sends every session's mutate batches, round robin, on a fixed
// schedule, each timed from its due time. Closed loop (rate 0): two
// goroutines each own two sessions and send one request at a time, every
// 16th request of a session a full read. The reads stay out of the open
// loop: a 16k-entry read holds a core for several milliseconds and
// allocates megabytes, and beside the writer it turned the open-loop p99
// into a measure of when collections and reads happened to overlap.
func (c *churnInst) run(d time.Duration, rate float64, traced bool) churnStats {
	var mu sync.Mutex
	var total churnStats
	var wg sync.WaitGroup
	start := time.Now()
	end := start.Add(d)
	goroutines := 2
	if rate > 0 {
		goroutines = 1
	}
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var st churnStats
			for k := 0; ; k++ {
				due := time.Now()
				kind := reqDrawn
				var cs *churnSession
				if rate > 0 {
					due = start.Add(time.Duration(float64(k) / rate * float64(time.Second)))
					waitUntil(due)
					cs = c.sessions[k%len(c.sessions)]
				} else {
					cs = c.sessions[g+2*(k%2)]
					if cs.reqs++; cs.reqs%churnReadEach == 0 {
						kind = reqRead
					}
				}
				if !due.Before(end) {
					break
				}
				c.issue(cs, due, rate > 0, kind, &st)
				// The probe runs only in the closed loop: on the open
				// loop's one sender it would hold back the due sends.
				if traced && rate == 0 && kind != reqRead && k%churnReadEach == 0 {
					c.probe.step()
				}
			}
			mu.Lock()
			total.ackMs = append(total.ackMs, st.ackMs...)
			total.lateMs = append(total.lateMs, st.lateMs...)
			total.events += st.events
			total.batches += st.batches
			total.reassigned += st.reassigned
			total.fullRecolors += st.fullRecolors
			mu.Unlock()
		}(g)
	}
	wg.Wait()
	return total
}

// waitUntil returns at t. It sleeps to within spinWindow of t and
// yields the processor for the rest: a sleep alone overshoots by up to
// a millisecond under load, which would read as service latency.
func waitUntil(t time.Time) {
	if w := time.Until(t) - spinWindow; w > 0 {
		time.Sleep(w)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// spinWindow is how far ahead of a due time waitUntil stops sleeping.
const spinWindow = 300 * time.Microsecond

// issue sends one request of a session and checks its reply. Mutates
// run on the session's single writer goroutine; a read may run beside
// it, so it accepts any epoch from the one current when it was sent on.
func (c *churnInst) issue(cs *churnSession, due time.Time, open bool, kind int, st *churnStats) {
	read := kind == reqRead
	if !read && cs.epoch+1 >= churnMaxEpochs {
		return
	}
	body, evs, err := cs.encode(read, kind == reqBurst)
	if err != nil {
		c.rep.op(false, "churn encode: %v", err)
		return
	}
	from := cs.current.Load()
	if !read {
		cs.log.set(cs.epoch+1, due.UnixNano(), int32(cs.model.aliveCount()))
	}
	sent := time.Now()
	status, reply, err := c.lb.post("/v1/plan:mutate", cs.bin, body)
	ack := time.Now()
	if err != nil {
		c.rep.op(false, "churn mutate: %v", err)
		return
	}
	if read {
		epoch, alive, changed, err := decodeRead(cs.bin, status, reply)
		// The writer may have one mutate in flight that the server has
		// applied but the writer has not yet seen acknowledged.
		ok := err == nil && epoch >= from && epoch <= cs.current.Load()+1 &&
			alive == int(cs.log.get(epoch).alive) && changed == alive
		c.rep.op(ok, "churn read: epoch %d (sent at %d), %d entries, alive %d: %v", epoch, from, changed, alive, err)
		return
	}
	resp, err := decodeMutate(cs.bin, status, reply)
	if err != nil {
		c.rep.op(false, "churn mutate: %v", err)
		return
	}
	cs.epoch++
	cs.current.Store(cs.epoch)
	cs.m = resp.M
	c.rep.op(resp.Epoch == cs.epoch && resp.Alive == cs.model.aliveCount() && resp.Disruption.Events == len(evs),
		"churn mutate: epoch %d (want %d), alive %d (want %d), %d events applied of %d",
		resp.Epoch, cs.epoch, resp.Alive, cs.model.aliveCount(), resp.Disruption.Events, len(evs))
	st.events += int64(len(evs))
	st.batches++
	st.reassigned += int64(resp.Disruption.Reassigned)
	if resp.Disruption.FullRecolor {
		st.fullRecolors++
	}
	st.ackMs = append(st.ackMs, float64(ack.Sub(due))/1e6)
	if open {
		st.lateMs = append(st.lateMs, float64(sent.Sub(due))/1e6)
	}
}

func (c *churnInst) finish() error {
	for i, cs := range c.sessions {
		body, _, err := cs.encode(true, false)
		if err != nil {
			return err
		}
		status, reply, err := c.lb.post("/v1/plan:mutate", cs.bin, body)
		if err != nil {
			return err
		}
		final, err := decodeMutate(cs.bin, status, reply)
		if err != nil {
			c.rep.op(false, "churn final read %d: %v", i, err)
			continue
		}
		c.rep.op(final.Epoch == cs.epoch, "session %d: final epoch %d, want %d", i, final.Epoch, cs.epoch)
		want := assignment(final)
		checkFold(c.rep, cs, want)
		verr := verifyAssignment(cs.spec, final)
		c.rep.op(verr == nil, "session %d: final assignment not collision-free: %v", i, verr)
	}
	if c.traced {
		subscriberLayers(c.rep, c.srv, c.sessions)
	}
	return nil
}

// subscriberLayers reports the push plane's per-layer metrics from what
// the (stopped) subscribers observed.
func subscriberLayers(rep *report, srv *service.Server, sessions []*churnSession) {
	var prop []float64
	var bytes, deltas [2]int64
	for _, cs := range sessions {
		for _, s := range cs.subs {
			prop = append(prop, s.propMs...)
			bytes[b2i(s.bin)] += s.deltaSize
			deltas[b2i(s.bin)] += int64(len(s.propMs))
		}
	}
	asc := sorted(prop)
	rep.layer("service.subscribe.propagation_p50_ms", pctile(asc, 0.5))
	rep.layer("service.subscribe.propagation_p99_ms", pctile(asc, 0.99))
	for i, name := range []string{"service.subscribe.json.bytes_per_delta", "service.subscribe.bin.bytes_per_delta"} {
		if deltas[i] > 0 {
			rep.layer(name, float64(bytes[i])/float64(deltas[i]))
		}
	}
	rep.layer("service.subscribe.drops", float64(srv.Snapshot().Sessions.SubscriberDrops))
}

// checkFold stops a session's subscribers and checks each one: every
// epoch arrived once and in order, no stream ended early, and the
// subscriber's folded copy equals the final full read.
func checkFold(rep *report, cs *churnSession, want map[[2]int]int) {
	for _, s := range cs.subs {
		s.sub.stop()
		w := s.sub.w
		rep.op(s.gaps == 0 && w.byes == 0 && w.errs == 0 && s.last == cs.epoch,
			"subscriber (bin=%v): %d gaps, %d byes, %d bad elements, last epoch %d of %d", s.bin, s.gaps, w.byes, w.errs, s.last, cs.epoch)
		checkStreamFold(rep, w.fold, want, cs.epoch)
	}
}

// checkStreamFold checks a stopped subscriber's folded copy, when it
// has one, against the final full read at epoch.
func checkStreamFold(rep *report, f *streamFold, want map[[2]int]int, epoch uint64) {
	if f == nil {
		return
	}
	rep.op(f.err == nil && f.last == epoch && mapsEqual(f.got, want), "subscriber (bin=%v) fold: %v (epoch %d of %d, %d sensors, want %d)",
		f.bin, f.err, f.last, epoch, len(f.got), len(want))
}

func mapsEqual(a, b map[[2]int]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			return false
		}
	}
	return true
}

// liveSchedule is a final assignment as a schedule over its bounding
// window: empty positions get a slot of their own past M, so they can
// never collide and VerifyCollisionFree checks exactly the live sensors.
type liveSchedule struct {
	m    int
	w    lattice.Window
	slot []int
}

func (s *liveSchedule) Slots() int { return s.m + len(s.slot) }

func (s *liveSchedule) SlotOf(p lattice.Point) (int, error) {
	i, ok := s.w.IndexOf(p)
	if !ok {
		return 0, fmt.Errorf("%v outside %v", p, s.w)
	}
	if s.slot[i] < 0 {
		return s.m + i, nil
	}
	return s.slot[i], nil
}

// verifyAssignment checks a full read with schedule.VerifyCollisionFree.
func verifyAssignment(spec service.PlanSpec, resp service.MutateResponse) error {
	lat, tile, err := spec.Resolve()
	if err != nil {
		return err
	}
	plan, err := core.NewPlan(lat, tile)
	if err != nil {
		return err
	}
	if len(resp.Changed) == 0 {
		return nil
	}
	lo, hi := slices.Clone(resp.Changed[0].P), slices.Clone(resp.Changed[0].P)
	for _, ch := range resp.Changed {
		for a, v := range ch.P {
			lo[a], hi[a] = min(lo[a], v), max(hi[a], v)
		}
	}
	w, err := lattice.NewWindow(lattice.Pt(lo...), lattice.Pt(hi...))
	if err != nil {
		return err
	}
	s := &liveSchedule{m: resp.M, w: w, slot: make([]int, w.Size())}
	for i := range s.slot {
		s.slot[i] = -1
	}
	for _, ch := range resp.Changed {
		if ch.Slot < 0 || ch.Slot >= resp.M {
			return fmt.Errorf("slot %d of %v outside [0, %d)", ch.Slot, ch.P, resp.M)
		}
		i, _ := w.IndexOf(lattice.Pt(ch.P...))
		s.slot[i] = ch.Slot
	}
	return schedule.VerifyCollisionFree(s, plan.Deployment(), w)
}

func (c *churnInst) close() {
	for _, cs := range c.sessions {
		for _, s := range cs.subs {
			s.sub.stop()
		}
	}
	if c.lb != nil {
		c.lb.close()
	}
	_ = os.RemoveAll(c.dir)
}

// churnProbe measures the write path's layers by calling them directly
// on a session of its own: a dynamic.Mutator, and two in-process servers
// without subscribers, one with persistence off and one with it on. All
// three apply the same batches, so they hold the same state.
type churnProbe struct {
	rep     *report
	mu      sync.Mutex
	model   *churnModel
	spec    service.PlanSpec
	win     service.WindowSpec
	mut     *dynamic.Mutator
	off, on *service.Server
	onDir   string
	epoch   uint64
	steps   int

	applyNs, offNs, readNs time.Duration
	// walNs are the per-batch differences, persistence on minus off.
	walNs                  []float64
	events, batches, reads int64
}

func newChurnProbe(cfg config, rep *report, dir string, side int) (*churnProbe, error) {
	p := &churnProbe{rep: rep, spec: churnPlans[0], model: newChurnModel(cfg.seed*131+99, [2]int{0, 0}, side)}
	p.win = service.WindowSpec{Lo: []int{0, 0}, Hi: []int{side - 1, side - 1}}
	lat, tile, err := p.spec.Resolve()
	if err != nil {
		return nil, err
	}
	plan, err := core.NewPlan(lat, tile)
	if err != nil {
		return nil, err
	}
	w, err := p.win.Window()
	if err != nil {
		return nil, err
	}
	if p.mut, err = dynamic.NewMutator(plan.Deployment(), w, plan.Schedule(),
		dynamic.Options{Residues: tiling.IdentityResidues(2)}); err != nil {
		return nil, err
	}
	p.off = service.NewServer(service.NewRegistry(4), service.ServerOptions{})
	p.on = service.NewServer(service.NewRegistry(4), service.ServerOptions{})
	p.onDir = filepath.Join(dir, "probe")
	if err := p.on.EnablePersistence(service.PersistOptions{Dir: p.onDir, SnapshotEvery: -1}); err != nil {
		return nil, err
	}
	return p, nil
}

// step applies one batch to all three, timing each; every sixteenth step
// also times a full read.
func (p *churnProbe) step() {
	p.mu.Lock()
	defer p.mu.Unlock()
	specs := p.model.batch()
	evs := make([]dynamic.Event, len(specs))
	kinds := map[string]dynamic.EventKind{"join": dynamic.Join, "leave": dynamic.Leave, "fail": dynamic.Fail, "move": dynamic.Move}
	for i, e := range specs {
		evs[i] = dynamic.Event{Kind: kinds[e.Op], P: lattice.Pt(e.P...)}
		if e.To != nil {
			evs[i].To = lattice.Pt(e.To...)
		}
	}
	t0 := time.Now()
	d, _, err := p.mut.Apply(evs)
	p.applyNs += time.Since(t0)
	if p.rep.op(err == nil, "probe apply: %v", err); err != nil {
		return
	}
	p.events += int64(d.Events)
	p.batches++
	e := p.epoch
	body, _ := json.Marshal(service.MutateRequest{Plan: p.spec, Window: p.win, Events: specs, Epoch: &e})
	// Alternate which server goes first, so neither gains from the
	// other's warm caches.
	var off, on time.Duration
	var offCode, onCode int
	if p.steps%2 == 0 {
		offCode, _, off = serveInProcess(p.off, "/v1/plan:mutate", false, body)
		onCode, _, on = serveInProcess(p.on, "/v1/plan:mutate", false, body)
	} else {
		onCode, _, on = serveInProcess(p.on, "/v1/plan:mutate", false, body)
		offCode, _, off = serveInProcess(p.off, "/v1/plan:mutate", false, body)
	}
	p.rep.op(offCode == http.StatusOK && onCode == http.StatusOK, "probe mutate: status %d (persistence off), %d (on)", offCode, onCode)
	p.offNs += off
	p.walNs = append(p.walNs, float64(on-off))
	p.epoch++
	p.steps++
	if p.steps%churnReadEach == 0 {
		body, _ := json.Marshal(service.MutateRequest{Plan: p.spec, Window: p.win, Full: true})
		code, _, t := serveInProcess(p.off, "/v1/plan:mutate", false, body)
		p.rep.op(code == http.StatusOK, "probe read: status %d", code)
		p.readNs += t
		p.reads++
	}
}

func (p *churnProbe) layers(rep *report) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.batches == 0 {
		return
	}
	b := float64(p.batches)
	rep.layer("dynamic.apply_ns_per_event", float64(p.applyNs)/float64(p.events))
	rep.layer("service.sessions.mutate_ns", float64(p.offNs)/b)
	rep.layerSamples("service.persist.wal_ns_per_batch", median(p.walNs), p.walNs)
	if p.reads > 0 {
		rep.layer("service.sessions.full_read_ns", float64(p.readNs)/float64(p.reads))
	}
	var walBytes int64
	_ = filepath.Walk(p.onDir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && !fi.IsDir() {
			walBytes += fi.Size()
		}
		return nil
	})
	rep.layer("service.persist.wal_bytes_per_event", float64(walBytes)/float64(p.events))
	// One snapshot of the probe's session: the cost the periodic
	// snapshots (off in the measured sessions) would add.
	t0 := time.Now()
	if p.on.FlushSessions() == 1 {
		rep.layer("service.persist.snapshot_ms", float64(time.Since(t0))/1e6)
	}
}
