package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"slices"
	"sync"
	"time"

	"tilingsched/internal/core"
	"tilingsched/internal/lattice"
	"tilingsched/internal/service"
	"tilingsched/internal/service/binwire"
)

// The lookup workload is the read path: a closed loop of two loopback
// connections sending a seeded pool of distinct batch requests over six
// cached plans. Codec, registry, engine, handler and transport do all the
// work; dynamic sessions, persistence and push do none.

const (
	lookupConns = 2
	lookupPool  = 256
	// lookupCheckEvery: one reply in this many is decoded and checked
	// (set-up checks every pool entry once). It and lookupProbeEvery are
	// prime to the 8-request shape cycle of the pool, so both sample
	// every shape.
	lookupCheckEvery = 7
	// lookupProbeEvery: in the traced phase, one request in this many
	// also has its layers timed.
	lookupProbeEvery = 5
)

// lookupPlans are the cached plans: 2D cross, Chebyshev and hexagonal
// neighbourhoods, a 3D cross, an explicit-point tile, and a radius-2
// cross.
var lookupPlans = []service.PlanSpec{
	{Tile: service.TileSpec{Name: "cross:2:1"}},
	{Tile: service.TileSpec{Name: "chebyshev:2:1"}},
	{Lattice: "hexagonal", Tile: service.TileSpec{Name: "ball:1"}},
	{Tile: service.TileSpec{Name: "cross:3:1"}},
	{Tile: service.TileSpec{Points: [][]int{{0, 0}, {1, 0}, {0, 1}}}},
	{Tile: service.TileSpec{Name: "cross:2:2"}},
}

// Request shapes of the mix.
const (
	shapeBinBatch   = iota // binary explicit slots batch of ~1024 points
	shapeJSONBatch         // JSON explicit batch of ~64 points, slots or maybroadcast
	shapeBinWinMay         // binary window maybroadcast
	shapeJSONWinSlt        // JSON window slots
)

var shapeWeights = []int{shapeBinBatch, shapeBinBatch, shapeBinBatch,
	shapeJSONBatch, shapeJSONBatch, shapeJSONBatch, shapeBinWinMay, shapeJSONWinSlt}

type lookupReq struct {
	shape int
	plan  int
	spec  service.PlanSpec
	bin   bool
	may   bool
	t     int64
	path  string
	body  []byte
	// pts or win are the queried points; wantSlots or wantMay the
	// answers the benchmark computed from its own compiled plan.
	pts       []lattice.Point
	win       *lattice.Window
	lookups   int
	wantSlots []int32
	wantMay   []bool
}

func setupLookup(cfg config, rep *report) (func() (instance, error), error) {
	plans := make([]*core.Plan, len(lookupPlans))
	for i, spec := range lookupPlans {
		lat, tile, err := spec.Resolve()
		if err != nil {
			return nil, err
		}
		if plans[i], err = core.NewPlan(lat, tile); err != nil {
			return nil, fmt.Errorf("plan %d: %w", i, err)
		}
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	pool := make([]*lookupReq, lookupPool)
	for i := range pool {
		r, err := newLookupReq(rng, i, plans, cfg.small)
		if err != nil {
			return nil, err
		}
		pool[i] = r
	}
	return func() (instance, error) { return startLookup(pool, rep) }, nil
}

// newLookupReq makes pool entry i. The shape and plan follow from i, so
// every seed has the same mix; the seed draws the points, windows and
// times.
func newLookupReq(rng *rand.Rand, i int, plans []*core.Plan, small bool) (*lookupReq, error) {
	r := &lookupReq{shape: shapeWeights[i%len(shapeWeights)], plan: i / len(shapeWeights) % len(plans)}
	r.spec = lookupPlans[r.plan]
	p := plans[r.plan]
	dim := p.Tile().Dim()
	coord := func() int { return rng.Intn(200001) - 100000 }
	req := service.BatchRequest{Plan: r.spec}
	switch r.shape {
	case shapeBinBatch, shapeJSONBatch:
		n := 1024
		if r.shape == shapeJSONBatch {
			n = 64
		}
		if small {
			n /= 8
		}
		r.bin = r.shape == shapeBinBatch
		r.may = !r.bin && i/len(shapeWeights)/len(plans)%2 == 1
		for i := 0; i < n; i++ {
			pt := make([]int, dim)
			for a := range pt {
				pt[a] = coord()
			}
			req.Points = append(req.Points, pt)
			r.pts = append(r.pts, lattice.Pt(pt...))
		}
	case shapeBinWinMay, shapeJSONWinSlt:
		r.bin = r.shape == shapeBinWinMay
		r.may = r.bin
		side := map[bool][]int{true: {32, 10}, false: {12, 5}}[r.bin][min(dim, 3)-2]
		if small {
			side = 3
		}
		lo, hi := make([]int, dim), make([]int, dim)
		for a := range lo {
			lo[a] = coord()
			hi[a] = lo[a] + side - 1
		}
		req.Window = &service.WindowSpec{Lo: lo, Hi: hi}
		w, err := req.Window.Window()
		if err != nil {
			return nil, err
		}
		r.win = &w
		r.pts = w.Points()
	}
	r.lookups = len(r.pts)
	if r.may {
		r.t = rng.Int63n(1 << 30)
		req.T = r.t
		r.path = "/v1/maybroadcast:batch"
		for _, pt := range r.pts {
			ok, err := p.MayBroadcast(pt, r.t)
			if err != nil {
				return nil, err
			}
			r.wantMay = append(r.wantMay, ok)
		}
	} else {
		r.path = "/v1/slots:batch"
		for _, pt := range r.pts {
			s, err := p.SlotOf(pt)
			if err != nil {
				return nil, err
			}
			r.wantSlots = append(r.wantSlots, int32(s))
		}
	}
	if r.bin {
		e := binwire.Get()
		service.EncodeBatchBinary(e, req, r.may, "")
		r.body = slices.Clone(e.Bytes())
		binwire.Put(e)
	} else {
		var err error
		if r.body, err = json.Marshal(req); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// check decodes a reply and compares it with the expected answers.
func (r *lookupReq) check(status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %.200s", status, body)
	}
	var slots []int32
	var may []bool
	var err error
	switch {
	case r.bin && r.may:
		var mr service.MayResponse
		mr, err = service.DecodeMayStream(body)
		may = mr.May
	case r.bin:
		var sr service.SlotsResponse
		sr, err = service.DecodeSlotsStream(body)
		slots = sr.Slots
	case r.may:
		var mr service.MayResponse
		err = json.Unmarshal(body, &mr)
		may = mr.May
	default:
		var sr service.SlotsResponse
		err = json.Unmarshal(body, &sr)
		slots = sr.Slots
	}
	if err != nil {
		return fmt.Errorf("decode: %v", err)
	}
	if r.may && !slices.Equal(may, r.wantMay) || !r.may && !slices.Equal(slots, r.wantSlots) {
		return fmt.Errorf("shape %d plan %d: wrong answers", r.shape, r.plan)
	}
	return nil
}

type lookupInst struct {
	pool []*lookupReq
	rep  *report
	srv  *service.Server
	reg  *service.Registry
	lb   *loopback
}

func startLookup(pool []*lookupReq, rep *report) (instance, error) {
	reg := service.NewRegistry(service.DefaultRegistryCapacity)
	l := &lookupInst{pool: pool, rep: rep, reg: reg, srv: service.NewServer(reg, service.ServerOptions{})}
	lb, err := startLoopback(l.srv, lookupConns)
	if err != nil {
		return nil, err
	}
	l.lb = lb
	// Warm-up: send and check every pool entry once, which compiles
	// every plan through the server.
	for _, r := range pool {
		status, body, err := lb.post(r.path, r.bin, r.body)
		if err != nil {
			l.close()
			return nil, err
		}
		if err := r.check(status, body); err != nil {
			l.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return l, nil
}

// lookupProbe accumulates the traced phase's per-layer timings.
type lookupProbe struct {
	decodeJSON, decodeBin, regGet, engine, serve time.Duration
	nJSON, nBin, nReg, lookups, n                int64
	bytesJSON, bytesBin, nBytesJSON, nBytesBin   int64
	respBytes, nResp                             int64
}

func (l *lookupInst) measure(seconds float64, traced bool) (phase, error) {
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	var mu sync.Mutex
	var lat []float64
	var lookups int64
	var total lookupProbe
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < lookupConns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var my []float64
			var pr lookupProbe
			var n, done int64
			var sc service.BinScratch
			for i := c * len(l.pool) / lookupConns; time.Now().Before(deadline); i++ {
				r := l.pool[i%len(l.pool)]
				t0 := time.Now()
				status, body, err := l.lb.post(r.path, r.bin, r.body)
				el := time.Since(t0)
				n++
				if err != nil {
					l.rep.op(false, "lookup: %v", err)
					continue
				}
				ok := status == http.StatusOK
				if n%lookupCheckEvery == 0 {
					if cerr := r.check(status, body); cerr != nil {
						l.rep.op(false, "lookup: %v", cerr)
						continue
					}
				}
				l.rep.op(ok, "lookup: status %d", status)
				if !ok {
					continue
				}
				my = append(my, float64(el)/1e6)
				done += int64(r.lookups)
				pr.respBytes += int64(len(body))
				pr.nResp++
				if traced && n%lookupProbeEvery == 0 {
					l.probe(r, &pr, &sc)
				}
			}
			mu.Lock()
			lat = append(lat, my...)
			lookups += done
			total.add(pr)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	el := time.Since(start).Seconds()
	ph := phase{throughput: float64(lookups) / el, latMs: lat, slotInflation: 1, ops: int64(len(lat))}
	// Every lookup plan comes from a lattice tiling, so its slot count is
	// |N|; anything else is a wrong answer.
	for _, spec := range lookupPlans {
		p, err := l.reg.GetSpec(spec)
		if err != nil {
			return phase{}, err
		}
		l.rep.op(p.Slots() == p.Tile().Size(), "plan %s: %d slots for |N| = %d", p.Signature(), p.Slots(), p.Tile().Size())
		ph.slotInflation = max(ph.slotInflation, float64(p.Slots())/float64(p.Tile().Size()))
	}
	if traced {
		l.layers(total, lat)
		ms, err := compileMs(lookupPlans)
		if err != nil {
			return phase{}, err
		}
		l.rep.layer("core.compile_ms", ms)
	}
	return ph, nil
}

func (p *lookupProbe) add(o lookupProbe) {
	p.decodeJSON += o.decodeJSON
	p.decodeBin += o.decodeBin
	p.regGet += o.regGet
	p.engine += o.engine
	p.serve += o.serve
	p.nJSON += o.nJSON
	p.nBin += o.nBin
	p.nReg += o.nReg
	p.lookups += o.lookups
	p.n += o.n
	p.bytesJSON += o.bytesJSON
	p.bytesBin += o.bytesBin
	p.nBytesJSON += o.nBytesJSON
	p.nBytesBin += o.nBytesBin
	p.respBytes += o.respBytes
	p.nResp += o.nResp
}

// probe times one request's layers by calling them directly: the decode
// funnel, the registry, the engine, and the whole handler in-process.
func (l *lookupInst) probe(r *lookupReq, pr *lookupProbe, sc *service.BinScratch) {
	t0 := time.Now()
	if r.bin {
		if _, err := service.DecodeBinaryBatch(r.body, service.Limits{}, sc); err != nil {
			l.rep.fail("probe decode: %v", err)
		}
		pr.decodeBin += time.Since(t0)
		pr.nBin++
		pr.bytesBin += int64(len(r.body))
		pr.nBytesBin++
	} else {
		if _, _, err := service.DecodeBatchRequest(r.body, service.Limits{}); err != nil {
			l.rep.fail("probe decode: %v", err)
		}
		pr.decodeJSON += time.Since(t0)
		pr.nJSON++
		pr.bytesJSON += int64(len(r.body))
		pr.nBytesJSON++
	}
	t0 = time.Now()
	plan, err := l.reg.GetSpec(r.spec)
	pr.regGet += time.Since(t0)
	pr.nReg++
	if err != nil {
		l.rep.fail("probe registry: %v", err)
		return
	}
	t0 = time.Now()
	switch {
	case r.may && r.win != nil:
		_, err = service.QueryWindowMayBroadcast(plan, *r.win, r.t, nil)
	case r.may:
		_, err = service.QueryMayBroadcast(plan, r.pts, r.t, nil)
	case r.win != nil:
		_, err = service.QueryWindowSlots(plan, *r.win, nil)
	default:
		_, err = service.QuerySlots(plan, r.pts, nil)
	}
	pr.engine += time.Since(t0)
	pr.lookups += int64(r.lookups)
	if err != nil {
		l.rep.fail("probe engine: %v", err)
	}
	status, body, d := serveInProcess(l.srv, r.path, r.bin, r.body)
	if err := r.check(status, body); err != nil {
		l.rep.fail("probe serve: %v", err)
	}
	pr.serve += d
	pr.n++
}

func (l *lookupInst) layers(p lookupProbe, lat []float64) {
	per := func(d time.Duration, n int64) float64 {
		if n == 0 {
			return 0
		}
		return float64(d) / float64(n)
	}
	rep := l.rep
	rep.layer("service.codec.json.decode_ns", per(p.decodeJSON, p.nJSON))
	rep.layer("service.codec.bin.decode_ns", per(p.decodeBin, p.nBin))
	rep.layer("service.codec.json.req_bytes", per(time.Duration(p.bytesJSON), p.nBytesJSON))
	rep.layer("service.codec.bin.req_bytes", per(time.Duration(p.bytesBin), p.nBytesBin))
	rep.layer("service.codec.resp_bytes", per(time.Duration(p.respBytes), p.nResp))
	rep.layer("service.registry.get_ns", per(p.regGet, p.nReg))
	st := l.reg.Stats()
	if st.Hits+st.Misses > 0 {
		rep.layer("service.registry.hit_ratio", float64(st.Hits)/float64(st.Hits+st.Misses))
	}
	rep.layer("service.engine.ns_per_lookup", per(p.engine, p.lookups))
	serve := per(p.serve, p.n)
	self := serve - per(p.decodeJSON+p.decodeBin, p.nJSON+p.nBin) - per(p.regGet, p.nReg) - per(p.engine, p.n)
	rep.layer("service.server.handler_self_ns", self)
	var sum float64
	for _, v := range lat {
		sum += v
	}
	if len(lat) > 0 {
		rep.layer("net.loopback.ns_per_req", sum/float64(len(lat))*1e6-serve)
	}
}

func (l *lookupInst) finish() error { return nil }

func (l *lookupInst) close() { l.lb.close() }
