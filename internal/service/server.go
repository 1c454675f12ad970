package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"tilingsched/internal/core"
	"tilingsched/internal/dynamic"
	"tilingsched/internal/lattice"
	"tilingsched/internal/obs/trace"
	"tilingsched/internal/service/binwire"
)

// ServerOptions bounds a server's per-request work. Zero values select
// the defaults.
type ServerOptions struct {
	// MaxBatch caps the number of explicit points per batch request and
	// the number of events per mutate request.
	MaxBatch int
	// MaxWindow caps the number of points a window shorthand may expand
	// to, and the size of a dynamic session's window.
	MaxWindow int
	// MaxBody caps the request body size in bytes.
	MaxBody int64
	// MaxSessions caps the live dynamic-deployment sessions
	// (DefaultMaxSessions when zero).
	MaxSessions int
	// MaxSubscribers caps the push subscribers attached to one session
	// (DefaultMaxSubscribers when zero); beyond it, subscribe answers
	// 503.
	MaxSubscribers int
	// SubscribeQueue is the per-subscriber delta-queue depth
	// (DefaultSubscribeQueue when zero): the number of epochs a slow
	// consumer may lag before it is dropped to a resync.
	SubscribeQueue int
	// SlowThreshold, when positive, samples requests slower than it
	// into SlowLog (at most one per 100ms): endpoint, codec, plan
	// signature, batch size, and decode/engine/encode phase times.
	SlowThreshold time.Duration
	// SlowLog receives the sampled slow-request traces. Nil disables
	// slow-request logging regardless of SlowThreshold.
	SlowLog func(SlowRequest)
	// TraceSampleEvery samples 1 in N requests into the span recorder
	// (DESIGN.md §14); 0 disables sampling. Slow requests and callers
	// propagating a sampled trace context are always recorded.
	TraceSampleEvery int
	// TraceRing is the number of recent traces retained for
	// /debug/traces (trace.DefaultRing when zero).
	TraceRing int
	// Logf, when non-nil, receives operational log lines (dirty session
	// evictions, persistence recoveries). Daemons wire it to log.Printf.
	Logf func(format string, args ...any)
}

const (
	defaultMaxBatch  = 1 << 16
	defaultMaxWindow = 1 << 20
	defaultMaxBody   = 8 << 20
)

// Server is the HTTP wire layer over a plan registry — the handler
// behind cmd/latticed. Endpoints:
//
//	POST /v1/plan               compile (or fetch) a plan, describe it
//	POST /v1/slots:batch        slots of a point batch or window
//	POST /v1/maybroadcast:batch may-broadcast bits at time t
//	POST /v1/plan:mutate        churn a dynamic deployment session
//	POST /v1/plan:subscribe     stream a session's epoch deltas (push)
//	GET  /healthz               liveness + registry and session stats
//
// Query buffers are pooled, so the steady-state engine work allocates
// nothing; remaining per-request allocations are JSON encoding and
// decoding. Traffic counters (batch sizes, mutation counts) are atomics
// exposed through Snapshot for /healthz and the daemon's expvar page.
type Server struct {
	reg        *Registry
	opts       ServerOptions
	mux        *http.ServeMux
	bufs       sync.Pool // of *queryBuf
	binScratch sync.Pool // of *BinScratch (batch decode arenas)
	traces     sync.Pool // of *reqTrace
	codecs     [numCodecs]codec
	sessions   *sessionTable
	met        *Metrics
	rec        *trace.Recorder
	subSeq     atomic.Uint64 // subscriber identity for deliver spans

	batchRequests  atomic.Int64
	batchPoints    atomic.Int64
	mutateRequests atomic.Int64
}

// ServerStats is a point-in-time snapshot of a server's traffic
// counters, shaped for JSON (expvar and /healthz).
type ServerStats struct {
	// Plans and Registry mirror the plan cache.
	Plans    int           `json:"plans"`
	Registry RegistryStats `json:"registry"`
	// BatchRequests and BatchPoints count slots/maybroadcast batches and
	// the points they carried (their ratio is the mean batch size).
	BatchRequests int64 `json:"batch_requests"`
	BatchPoints   int64 `json:"batch_points"`
	// MutateRequests counts /v1/plan:mutate requests (accepted or not);
	// Sessions breaks down the dynamic-session traffic.
	MutateRequests int64        `json:"mutate_requests"`
	Sessions       SessionStats `json:"sessions"`
}

// Snapshot returns the server's current traffic counters. Safe for
// concurrent callers; used by /healthz and published to expvar by
// cmd/latticed.
func (s *Server) Snapshot() ServerStats {
	return ServerStats{
		Plans:          s.reg.Len(),
		Registry:       s.reg.Stats(),
		BatchRequests:  s.batchRequests.Load(),
		BatchPoints:    s.batchPoints.Load(),
		MutateRequests: s.mutateRequests.Load(),
		Sessions:       s.sessions.snapshot(),
	}
}

// queryBuf carries one request's scratch slices between pool uses: the
// raw request body, the engine's answers (one chunk at a time on the
// window path), and the JSON codec's collected batch answer.
type queryBuf struct {
	body     []byte
	slots    []int32
	may      []bool
	allSlots []int32
	allMay   []bool
}

// NewServer builds the HTTP handler over the registry.
func NewServer(reg *Registry, opts ServerOptions) *Server {
	if opts.MaxBatch <= 0 {
		opts.MaxBatch = defaultMaxBatch
	}
	if opts.MaxWindow <= 0 {
		opts.MaxWindow = defaultMaxWindow
	}
	if opts.MaxBody <= 0 {
		opts.MaxBody = defaultMaxBody
	}
	if opts.MaxSubscribers <= 0 {
		opts.MaxSubscribers = DefaultMaxSubscribers
	}
	if opts.SubscribeQueue <= 0 {
		opts.SubscribeQueue = DefaultSubscribeQueue
	}
	s := &Server{reg: reg, opts: opts, mux: http.NewServeMux(), met: newServerMetrics(opts)}
	s.rec = trace.NewRecorder(opts.TraceSampleEvery, opts.TraceRing)
	lim := Limits{MaxBatch: opts.MaxBatch, MaxWindow: opts.MaxWindow}
	s.codecs = [numCodecs]codec{codecJSON: jsonCodec{lim}, codecBin: binCodec{lim, s.rec}}
	s.sessions = newSessionTable(opts.MaxSessions, s.met)
	s.sessions.logf = opts.Logf
	reg.instrument(s.met)
	s.bufs.New = func() any { return new(queryBuf) }
	s.binScratch.New = func() any { return new(BinScratch) }
	s.traces.New = func() any { return new(reqTrace) }
	s.mux.HandleFunc("POST /v1/plan", s.instrument(epPlan, s.handlePlan))
	s.mux.HandleFunc("POST /v1/slots:batch", s.instrument(epSlots, s.handleBatch(false)))
	s.mux.HandleFunc("POST /v1/maybroadcast:batch", s.instrument(epMay, s.handleBatch(true)))
	s.mux.HandleFunc("POST /v1/plan:mutate", s.instrument(epMutate, s.handleMutate))
	s.mux.HandleFunc("POST /v1/plan:subscribe", s.instrument(epSubscribe, s.handleSubscribe))
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	return s
}

// EnablePersistence turns on durable sessions (DESIGN.md §12): every
// mutation batch appends to a per-session WAL under o.Dir, snapshots
// bound the log, evicted sessions flush-then-restore instead of losing
// churn, and RestoreSessions reloads the directory on start. Call it
// before the server handles traffic (the store pointer is read without
// synchronization on the session path).
func (s *Server) EnablePersistence(o PersistOptions) error {
	store, err := newSessionStore(o, s.met, s.opts.Logf)
	if err != nil {
		return err
	}
	s.sessions.store = store
	return nil
}

// FlushSessions snapshots every dirty live session to the data
// directory and returns the number flushed — the graceful-shutdown
// hook. A no-op (returning 0) without persistence.
func (s *Server) FlushSessions() int {
	return s.sessions.flushAll()
}

// RestoreSessions reloads every session persisted in the data directory
// (restore-on-start): each on-disk identity recompiles its plan through
// the registry and re-enters the table via the normal restore path,
// oldest first so the most recently written sessions end up at the LRU
// front. An identity whose plan no longer compiles to the recorded
// signature is skipped with a log line, never fatal. Returns the number
// restored; without persistence it is a no-op.
func (s *Server) RestoreSessions() (int, error) {
	st := s.sessions
	if st.store == nil {
		return 0, nil
	}
	idents, err := st.store.list()
	if err != nil {
		return 0, err
	}
	n := 0
	for _, id := range idents {
		tile := make([][]int, len(id.tile))
		for i, pt := range id.tile {
			tile[i] = pt
		}
		plan, err := s.reg.GetSpec(PlanSpec{Lattice: id.lat, Tile: TileSpec{Points: tile}})
		if err != nil {
			st.logfSafe("latticed: restore: compiling plan for %s: %v", id.sig, err)
			continue
		}
		if plan.Signature() != id.sig {
			st.logfSafe("latticed: restore: plan %s compiled to signature %s, skipping", id.sig, plan.Signature())
			continue
		}
		if _, err := st.get(plan, id.win); err != nil {
			st.logfSafe("latticed: restore: session %s|%s: %v", id.sig, id.win, err)
			continue
		}
		n++
	}
	return n, nil
}

// handleMutate churns a dynamic deployment session: resolve the plan,
// find or seed the session for (signature, window), apply the event
// batch under the session lock, and answer the post-batch epoch with the
// slot deltas. A stale request epoch is a 409 carrying the current epoch
// so the client can resync (re-request with full set).
func (s *Server) handleMutate(w http.ResponseWriter, r *http.Request, cd codec, tr *reqTrace) {
	s.mutateRequests.Add(1)
	decodeStart := time.Now()
	buf := s.bufs.Get().(*queryBuf)
	defer s.bufs.Put(buf)
	if !s.readBody(w, r, cd, buf) {
		return
	}
	req, err := cd.decodeMutate(buf.body, tr)
	if err != nil {
		cd.writeErr(w, wireStatus(err), err.Error())
		return
	}
	plan, ok := s.plan(w, cd, req.Plan)
	if !ok {
		return
	}
	tr.sig = plan.Signature()
	tr.batch = len(req.Events)
	tr.decodeNs = time.Since(decodeStart)
	if req.Window.Dim() != plan.Tile().Dim() {
		cd.writeErr(w, http.StatusBadRequest,
			fmt.Sprintf("window dimension %d ≠ plan dimension %d", req.Window.Dim(), plan.Tile().Dim()))
		return
	}
	engineStart := time.Now()
	resp, status, cerr := s.mutateCore(plan, req.Window, req.HasEpoch, req.Epoch, req.Full, req.Events, tr.span)
	tr.engineNs = time.Since(engineStart)
	if cerr != nil {
		cd.writeErr(w, status, cerr.Error())
		return
	}
	encodeStart := time.Now()
	cd.writeMutate(w, status, resp)
	tr.encodeNs = time.Since(encodeStart)
}

// mutateCore is the session half of the mutate endpoint: find or seed the session for (plan, window),
// apply the event batch under the session lock, and assemble the
// response. Returns the response and its HTTP status (200, 400 on a
// partial apply, 409 on a stale epoch — the conflict response carries
// the current epoch so the client can resync); a non-nil error means
// there is no MutateResponse payload (session-table failure, 500).
// tsp, when non-nil, is the request's trace: the epoch timeline stamps
// (overlay-apply, wal-append, hub-publish) land on it, and the
// published delta carries it so subscriber deliveries complete the
// span tree (DESIGN.md §14).
func (s *Server) mutateCore(plan *core.Plan, win lattice.Window, hasEpoch bool, epoch uint64, full bool, events []dynamic.Event, tsp *trace.Trace) (MutateResponse, int, error) {
	var sess *dynSession
	for {
		var err error
		sess, err = s.sessions.get(plan, win)
		if err != nil {
			return MutateResponse{}, http.StatusInternalServerError, err
		}
		// The session lock covers state mutation and response assembly
		// only; it is released before any bytes go to the client, so a
		// slow reader cannot stall the deployment's mutation pipeline.
		sess.mu.Lock()
		if !sess.gone {
			break
		}
		// Evicted between lookup and lock: its flush has run and the
		// table no longer knows it, so anything applied here would be
		// acked yet unreachable (and unpersisted). Re-get the live
		// session instead.
		sess.mu.Unlock()
	}
	if hasEpoch && epoch != sess.epoch {
		conflict := MutateResponse{
			Signature: plan.Signature(),
			Epoch:     sess.epoch,
			M:         sess.mut.Slots(),
			Alive:     sess.mut.AliveCount(),
			Error:     fmt.Sprintf("stale epoch %d (current %d): resync with full=true", epoch, sess.epoch),
		}
		sess.mu.Unlock()
		s.sessions.recordConflict()
		return conflict, http.StatusConflict, nil
	}
	resp := MutateResponse{Signature: plan.Signature()}
	if len(events) > 0 {
		applyStart := tsp.Clock()
		d, changed, aerr := sess.mut.Apply(events)
		if d.Events > 0 {
			sess.epoch++
			tsp.EpochSpan("overlay-apply", int64(sess.epoch), applyStart, tsp.Clock())
			s.sessions.record(d.Events)
			if sess.disk != nil {
				walStart := tsp.Clock()
				// Log the applied prefix (Apply stops at the first bad
				// event, so events[:d.Events] is exactly what changed
				// state) stamped with the post-batch epoch. An append
				// failure drops durability for this session — with a log
				// line — rather than serving errors: the last flushed
				// state stands, and replaying a WAL with a hole would
				// corrupt, so the handle is closed for good.
				if perr := sess.disk.append(sess.epoch, events[:d.Events]); perr != nil {
					s.sessions.logfSafe("latticed: session %s: %v (persistence disabled for this session)", sess.key, perr)
					sess.disk.close()
					sess.disk = nil
				} else {
					tsp.EpochSpan("wal-append", int64(sess.epoch), walStart, tsp.Clock())
					if sess.disk.shouldSnapshot() {
						if perr := sess.disk.snapshot(sess.mut, sess.epoch); perr != nil {
							s.sessions.logfSafe("latticed: session %s: %v", sess.key, perr)
						}
					}
				}
			}
			// Fan the applied batch out to subscribers while still under
			// the session lock, so every subscriber queue observes epochs
			// in order. The delta owns its change slice (the response's
			// may be replaced by the full branch below); publishing
			// never blocks — a full queue drops its subscriber instead.
			if sess.hub.active() {
				fanStart := time.Now()
				pubStart := tsp.Clock()
				pd := &Delta{Epoch: sess.epoch, M: sess.mut.Slots(), Alive: sess.mut.AliveCount(),
					PubTime: fanStart, trace: tsp, pubNs: pubStart}
				pd.Changed = make([]ChangeSpec, 0, len(changed))
				for _, ch := range changed {
					pd.Changed = append(pd.Changed, ChangeSpec{P: ch.P, Slot: ch.Slot})
				}
				delivered, dropped := sess.hub.publish(pd)
				tsp.EpochSpan("hub-publish", int64(sess.epoch), pubStart, tsp.Clock())
				sess.lastPubNs.Store(fanStart.UnixNano())
				s.met.deltasPushed.Add(uint64(delivered))
				s.met.fanoutNs.Record(uint64(time.Since(fanStart)))
				if dropped > 0 {
					s.met.subsDropped.Add(uint64(dropped))
					s.sessions.recordSubDrops(dropped)
					s.sessions.logfSafe("latticed: session %s: dropped %d slow subscriber(s) at epoch %d",
						sess.key, dropped, sess.epoch)
				}
			}
		}
		resp.Disruption = DisruptionSpec{
			Events:      d.Events,
			Joined:      d.Joined,
			Departed:    d.Departed,
			Reassigned:  d.Reassigned,
			ColorsDelta: d.ColorsDelta,
			FullRecolor: d.FullRecolor,
			Compacted:   d.Compacted,
		}
		resp.Changed = make([]ChangeSpec, 0, len(changed))
		for _, ch := range changed {
			resp.Changed = append(resp.Changed, ChangeSpec{P: ch.P, Slot: ch.Slot})
		}
		if aerr != nil {
			// The applied prefix stands; report it alongside the error.
			resp.Error = aerr.Error()
		}
	}
	if full {
		resp.Changed = liveChangesLocked(sess)
	}
	resp.Epoch = sess.epoch
	resp.M = sess.mut.Slots()
	resp.Alive = sess.mut.AliveCount()
	sess.mu.Unlock()
	status := http.StatusOK
	if resp.Error != "" {
		status = http.StatusBadRequest
	}
	return resp, status, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, HealthResponse{OK: true, Plans: s.reg.Len(), Stats: s.reg.Stats(),
		Traffic: s.Snapshot()})
}

// handlePlan compiles (or fetches) a plan and describes it. The plan
// endpoint is JSON-only, whatever the request's Content-Type.
func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request, _ codec, tr *reqTrace) {
	decodeStart := time.Now()
	var req PlanRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.opts.MaxBody)).Decode(&req); err != nil {
		writeErr(w, bodyStatus(err), fmt.Sprintf("decoding request: %v", err))
		return
	}
	plan, ok := s.plan(w, s.codecs[codecJSON], BinPlanRef{Spec: req.Plan})
	if !ok {
		return
	}
	tr.sig = plan.Signature()
	tr.decodeNs = time.Since(decodeStart)
	period := plan.Tiling().Period()
	rows := make([][]int64, period.Rows())
	for i := range rows {
		rows[i] = make([]int64, period.Cols())
		for j := range rows[i] {
			rows[i][j] = period.At(i, j)
		}
	}
	tilePts := plan.Tile().Points()
	tile := make([][]int, len(tilePts))
	for i, pt := range tilePts {
		tile[i] = pt
	}
	encodeStart := time.Now()
	writeJSON(w, http.StatusOK, PlanResponse{
		Signature: plan.Signature(),
		Lattice:   plan.Lattice().Name(),
		Dim:       plan.Tile().Dim(),
		Slots:     plan.Slots(),
		Period:    rows,
		Tile:      tile,
	})
	tr.encodeNs = time.Since(encodeStart)
}

// handleBatch serves the slots (may false) and may-broadcast (may true)
// endpoints in either codec: decode, resolve the plan, pre-check the
// query dimension so the engine cannot fail once the answer has begun,
// then stream the head, the answers in chunks of binChunkPoints, and
// the end. On the window path the engine fills one chunk at a time, so
// a binary answer never materializes at once.
func (s *Server) handleBatch(may bool) func(http.ResponseWriter, *http.Request, codec, *reqTrace) {
	return func(w http.ResponseWriter, r *http.Request, cd codec, tr *reqTrace) {
		decodeStart := time.Now()
		buf := s.bufs.Get().(*queryBuf)
		defer s.bufs.Put(buf)
		if !s.readBody(w, r, cd, buf) {
			return
		}
		sc := s.binScratch.Get().(*BinScratch)
		defer func() {
			sc.Release()
			s.binScratch.Put(sc)
		}()
		req, err := cd.decodeBatch(buf.body, may, tr, sc)
		if err != nil {
			cd.writeErr(w, wireStatus(err), err.Error())
			return
		}
		plan, ok := s.plan(w, cd, req.Plan)
		if !ok {
			return
		}
		// Both decode funnels guarantee one dimension per batch, so this
		// one check means the engine cannot fail after the head.
		total, dim := len(req.Points), 0
		if req.UseWindow {
			total, dim = req.Window.Size(), req.Window.Dim()
		} else if total > 0 {
			dim = len(req.Points[0])
		}
		if dim != plan.Tile().Dim() {
			cd.writeErr(w, http.StatusBadRequest,
				fmt.Sprintf("query dimension %d ≠ plan dimension %d", dim, plan.Tile().Dim()))
			return
		}
		s.batchRequests.Add(1)
		s.batchPoints.Add(int64(total))
		tr.sig = plan.Signature()
		tr.batch = total
		tr.decodeNs = time.Since(decodeStart)
		engineStart := time.Now()
		st := stream{w: w, buf: buf, may: may}
		defer st.release()
		cd.batchHead(&st, plan.Slots(), req.T, total)
		if may {
			emit := func(v []bool) bool { return cd.mayChunk(&st, v) }
			if req.UseWindow {
				err = QueryWindowMayChunked(plan, req.Window, req.T, binChunkPoints, buf.may[:0], emit)
			} else if buf.may, err = QueryMayBroadcast(plan, req.Points, req.T, buf.may[:0]); err == nil {
				emitChunks(buf.may, emit)
			}
		} else {
			emit := func(v []int32) bool { return cd.slotsChunk(&st, v) }
			if req.UseWindow {
				err = QueryWindowSlotsChunked(plan, req.Window, binChunkPoints, buf.slots[:0], emit)
			} else if buf.slots, err = QuerySlots(plan, req.Points, buf.slots[:0]); err == nil {
				emitChunks(buf.slots, emit)
			}
		}
		tr.engineNs = time.Since(engineStart)
		if err != nil {
			// Unreachable after the dimension pre-check, but should the
			// engine fail before any byte went out, answer properly;
			// mid-stream the missing end is the client's signal.
			if !st.wrote {
				cd.writeErr(w, http.StatusBadRequest, err.Error())
			}
			return
		}
		encodeStart := time.Now()
		cd.batchEnd(&st)
		tr.encodeNs = time.Since(encodeStart)
	}
}

// emitChunks hands ans to emit in runs of at most binChunkPoints,
// stopping once emit reports the client gone.
func emitChunks[T any](ans []T, emit func([]T) bool) {
	for off := 0; off < len(ans); off += binChunkPoints {
		if !emit(ans[off:min(off+binChunkPoints, len(ans))]) {
			return
		}
	}
}

// readBody reads the size-capped request body into the pooled
// buf.body, answering 413 past MaxBody and 400 on any other read
// failure through cd.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request, cd codec, buf *queryBuf) bool {
	var err error
	if buf.body, err = readBodyInto(buf.body, w, r, s.opts.MaxBody); err != nil {
		cd.writeErr(w, bodyStatus(err), fmt.Sprintf("reading request: %v", err))
		return false
	}
	return true
}

// bodyStatus maps a request-body read failure to its HTTP status.
func bodyStatus(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// plan resolves a plan reference, answering failures through cd: a
// signature is a pure cache lookup (404 on a miss, so the client
// re-sends the spec form), a spec compiles through the registry.
func (s *Server) plan(w http.ResponseWriter, cd codec, ref BinPlanRef) (*core.Plan, bool) {
	if ref.Signature != "" {
		plan, ok := s.reg.Lookup(ref.Signature)
		if !ok {
			cd.writeErr(w, http.StatusNotFound,
				fmt.Sprintf("unknown plan signature %q: re-send the full plan spec", ref.Signature))
		}
		return plan, ok
	}
	plan, err := s.reg.GetSpec(ref.Spec)
	if err != nil {
		cd.writeErr(w, planErrStatus(err), err.Error())
		return nil, false
	}
	return plan, true
}

// planErrStatus maps a plan-compilation failure to its HTTP status:
// malformed specs are 400, inexact prototiles 422, anything else 500.
func planErrStatus(err error) int {
	switch {
	case errors.Is(err, ErrSpec):
		return http.StatusBadRequest
	case errors.Is(err, core.ErrNotExact):
		return http.StatusUnprocessableEntity
	}
	return http.StatusInternalServerError
}

// codec is one wire format of the batch, mutate, and subscribe
// endpoints: JSON (jsonCodec) or binary frames (binCodec). instrument
// picks it once per request from the Content-Type and the handlers
// speak to the client only through it, so each endpoint has one
// handler for both formats. Requests decode into the codec-neutral
// commands BinBatch, BinMutate, and BinSubscribe.
type codec interface {
	// decodeBatch parses a request for the slots (may false) or
	// may-broadcast (may true) endpoint; its points alias sc.
	decodeBatch(body []byte, may bool, tr *reqTrace, sc *BinScratch) (BinBatch, error)
	// decodeMutate parses a mutate request.
	decodeMutate(body []byte, tr *reqTrace) (BinMutate, error)
	// decodeSubscribe parses a subscribe request; the result does not
	// alias body.
	decodeSubscribe(body []byte, tr *reqTrace) (BinSubscribe, error)
	// writeErr answers a failed request.
	writeErr(w http.ResponseWriter, status int, msg string)
	// batchHead, slotsChunk or mayChunk, and batchEnd write a batch
	// answer through st; a chunk returns false once the client is gone.
	batchHead(st *stream, m int, t int64, total int)
	slotsChunk(st *stream, slots []int32) bool
	mayChunk(st *stream, flags []bool) bool
	batchEnd(st *stream)
	// writeMutate answers a mutate request with its session result.
	writeMutate(w http.ResponseWriter, status int, resp MutateResponse)
	// subHello, subDelta, and subBye write and flush one subscription
	// element each; false means the client is gone. subDelta writes the
	// delta's shared, already-encoded frame.
	subHello(st *stream, h SubscribeHello) bool
	subDelta(st *stream, d *Delta) bool
	subBye(st *stream, epoch uint64, reason string)
}

// stream is one response in flight. For a batch answer the binary
// codec frames into e and writes out past binFlushBytes, and the JSON
// codec collects the answer in buf until batchEnd. A subscription holds
// no encode state while it waits: each element arrives complete (a
// Delta's shared frame, or a hello or bye encoded on the spot) and is
// written and flushed through rc in one send.
type stream struct {
	w     http.ResponseWriter
	rc    *http.ResponseController
	e     *binwire.Buffer // binary batch only; returned by release
	buf   *queryBuf
	err   error // first write failure; sticky (the client hung up)
	wrote bool  // the binary response has begun
	may   bool
	m     int
	t     int64
}

// release returns the binary encode buffer to its pool.
func (st *stream) release() {
	if st.e != nil {
		binwire.Put(st.e)
	}
}

// jsonCodec is the JSON wire format: the Decode*Request funnels, one
// application/json reply per request, and an application/x-ndjson
// subscription stream.
type jsonCodec struct{ lim Limits }

func (c jsonCodec) decodeBatch(body []byte, may bool, _ *reqTrace, sc *BinScratch) (BinBatch, error) {
	req, win, err := DecodeBatchRequest(body, c.lim)
	if err != nil {
		return BinBatch{}, err
	}
	out := BinBatch{Kind: binwire.FrameBatchSlots, Plan: BinPlanRef{Spec: req.Plan}, T: req.T}
	if may {
		out.Kind = binwire.FrameBatchMay
	}
	if win != nil {
		out.Window, out.UseWindow = *win, true
		return out, nil
	}
	// The points alias the decoded coordinate arrays, not copies.
	sc.pts = sc.pts[:0]
	for _, p := range req.Points {
		sc.pts = append(sc.pts, lattice.Point(p))
	}
	out.Points = sc.pts
	return out, nil
}

func (c jsonCodec) decodeMutate(body []byte, _ *reqTrace) (BinMutate, error) {
	req, win, events, err := DecodeMutateRequest(body, c.lim)
	if err != nil {
		return BinMutate{}, err
	}
	out := BinMutate{Plan: BinPlanRef{Spec: req.Plan}, Window: win, Full: req.Full, Events: events}
	if req.Epoch != nil {
		out.Epoch, out.HasEpoch = *req.Epoch, true
	}
	return out, nil
}

func (jsonCodec) writeErr(w http.ResponseWriter, status int, msg string) { writeErr(w, status, msg) }

func (jsonCodec) batchHead(st *stream, m int, t int64, _ int) {
	st.m, st.t = m, t
	st.buf.allSlots, st.buf.allMay = st.buf.allSlots[:0], st.buf.allMay[:0]
}

func (jsonCodec) slotsChunk(st *stream, slots []int32) bool {
	st.buf.allSlots = append(st.buf.allSlots, slots...)
	return true
}

func (jsonCodec) mayChunk(st *stream, flags []bool) bool {
	st.buf.allMay = append(st.buf.allMay, flags...)
	return true
}

func (jsonCodec) batchEnd(st *stream) {
	if st.may {
		writeJSON(st.w, http.StatusOK, MayResponse{M: st.m, T: st.t, May: st.buf.allMay})
		return
	}
	writeJSON(st.w, http.StatusOK, SlotsResponse{M: st.m, Slots: st.buf.allSlots})
}

// jsonBufs recycles the JSON mutate reply's byte slice across requests.
var jsonBufs = sync.Pool{New: func() any { return new([]byte) }}

// writeMutate appends the reply into a pooled byte slice and sends it
// with one Write: no reflection, and no per-change allocation on a full
// read. The bytes equal json.NewEncoder(w).Encode(resp).
func (jsonCodec) writeMutate(w http.ResponseWriter, status int, resp MutateResponse) {
	bp := jsonBufs.Get().(*[]byte)
	b := appendMutateJSON((*bp)[:0], resp)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(b) // the status line is already out; nothing more to do
	*bp = b
	jsonBufs.Put(bp)
}

// appendMutateJSON appends resp to b as json.Encoder.Encode writes it:
// MutateResponse's field order, "changed":null for a nil slice (and
// "p":null for a nil point), error omitted when empty, and a trailing
// newline. Strings go through json.Marshal, which keeps its HTML
// escaping and invalid-UTF-8 replacement; numbers through strconv, as
// encoding/json formats them.
func appendMutateJSON(b []byte, resp MutateResponse) []byte {
	b = append(b, `{"signature":`...)
	b = appendJSONString(b, resp.Signature)
	b = append(b, `,"epoch":`...)
	b = strconv.AppendUint(b, resp.Epoch, 10)
	b = append(b, `,"m":`...)
	b = strconv.AppendInt(b, int64(resp.M), 10)
	b = append(b, `,"alive":`...)
	b = strconv.AppendInt(b, int64(resp.Alive), 10)
	d := resp.Disruption
	b = append(b, `,"disruption":{"events":`...)
	b = strconv.AppendInt(b, int64(d.Events), 10)
	b = append(b, `,"joined":`...)
	b = strconv.AppendInt(b, int64(d.Joined), 10)
	b = append(b, `,"departed":`...)
	b = strconv.AppendInt(b, int64(d.Departed), 10)
	b = append(b, `,"reassigned":`...)
	b = strconv.AppendInt(b, int64(d.Reassigned), 10)
	b = append(b, `,"colors_delta":`...)
	b = strconv.AppendInt(b, int64(d.ColorsDelta), 10)
	b = append(b, `,"full_recolor":`...)
	b = strconv.AppendBool(b, d.FullRecolor)
	b = append(b, `,"compacted":`...)
	b = strconv.AppendBool(b, d.Compacted)
	b = append(b, `},"changed":`...)
	if resp.Changed == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, ch := range resp.Changed {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"p":`...)
			if ch.P == nil {
				b = append(b, "null"...)
			} else {
				b = append(b, '[')
				for j, c := range ch.P {
					if j > 0 {
						b = append(b, ',')
					}
					b = strconv.AppendInt(b, int64(c), 10)
				}
				b = append(b, ']')
			}
			b = append(b, `,"slot":`...)
			b = strconv.AppendInt(b, int64(ch.Slot), 10)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	if resp.Error != "" {
		b = append(b, `,"error":`...)
		b = appendJSONString(b, resp.Error)
	}
	return append(b, "}\n"...)
}

// appendJSONString appends s as encoding/json quotes it.
func appendJSONString(b []byte, s string) []byte {
	q, _ := json.Marshal(s) // a string always marshals
	return append(b, q...)
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(body); err != nil {
		// The status line is already out; nothing more to do.
		_ = err
	}
}

func writeErr(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, ErrorResponse{Error: msg})
}
