package service

// Epoch-delta push (DESIGN.md §13): POST /v1/plan:subscribe attaches a
// client to a dynamic mutation session and streams every subsequent
// epoch's slot changes, so sensors learn reassignments without polling.
// Each session carries a subHub — a set of bounded per-subscriber
// queues. mutateCore publishes one immutable Delta per applied batch
// under the session lock (so subscribers observe epochs in order), and
// publishing never blocks: a subscriber whose queue is full is dropped
// on the spot and its stream ends with a "resync required" terminal
// frame. A subscriber arriving with a stale epoch is caught up from the
// persisted WAL (§12) when the gap is covered, and answered with a full
// resync snapshot otherwise. Lock order: sess.mu → subHub.mu → table.mu
// (publish runs under the session lock; detach and hangup take only the
// hub lock).

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"tilingsched/internal/core"
	"tilingsched/internal/lattice"
	"tilingsched/internal/obs/trace"
)

const (
	// DefaultSubscribeQueue is a subscriber's delta-queue depth when
	// ServerOptions leaves SubscribeQueue zero: the number of epochs a
	// slow consumer may lag before it is dropped to a resync.
	DefaultSubscribeQueue = 256
	// DefaultMaxSubscribers bounds the subscribers attached to one
	// session when ServerOptions leaves MaxSubscribers zero.
	DefaultMaxSubscribers = 1024
)

// Subscriber terminal-frame reasons (the Bye text of the ending delta).
const (
	byeSlow    = "resync required: subscriber queue overflow"
	byeEvicted = "resync required: session evicted"
)

// SubscribeRequest is the body of POST /v1/plan:subscribe. The
// (plan, window) pair names the mutation session exactly as in
// MutateRequest. Epoch, when non-nil, is the last epoch the client has
// applied: the stream resumes from there (WAL catch-up) when the gap is
// covered, and opens with a full resync delta otherwise. A nil epoch
// always opens with a full resync delta.
type SubscribeRequest struct {
	Plan   PlanSpec   `json:"plan"`
	Window WindowSpec `json:"window"`
	Epoch  *uint64    `json:"epoch,omitempty"`
}

// SubscribeHello is the first element of a subscription stream: the
// session's identity and its epoch, palette size, and live count at
// attach time. Every delta that follows has a strictly larger epoch
// (after any catch-up deltas, which close the gap up to Epoch).
type SubscribeHello struct {
	Signature string `json:"signature"`
	Epoch     uint64 `json:"epoch"`
	M         int    `json:"m"`
	Alive     int    `json:"alive"`
}

// SubscribeDelta is one pushed stream element: the slot changes that
// take a copy of the assignment from the previous epoch to Epoch. Full
// marks a resync delta — Changed is the complete live assignment and
// replaces the copy instead of patching it. A non-empty Bye terminates
// the stream: the server stopped pushing (slow-consumer drop, session
// eviction) and the client must reconnect and resync.
type SubscribeDelta struct {
	Epoch   uint64       `json:"epoch"`
	M       int          `json:"m"`
	Alive   int          `json:"alive"`
	Full    bool         `json:"full,omitempty"`
	Changed []ChangeSpec `json:"changed"`
	Bye     string       `json:"bye,omitempty"`
}

// Delta is the fan-out unit of the push plane: one epoch's slot changes
// (or, with Full set, a complete assignment snapshot), shared immutably
// by every subscriber queue it is published to. In-process subscribers
// (Server.Subscribe) receive *Delta directly and pay no encoding. The
// wire relays write its stream element — a SubscribeDelta line or a
// FrameDelta frame — which the first relay of each codec encodes and
// every other relay of that codec writes as the same shared bytes, so an
// epoch costs one encode per codec, not one per subscriber.
type Delta struct {
	// Epoch is the session epoch this delta produces.
	Epoch uint64
	// M and Alive are the post-epoch palette size and live-sensor count.
	M, Alive int
	// Full marks a resync snapshot: Changed is the complete live
	// assignment and replaces the subscriber's copy.
	Full bool
	// Changed is the slot-change set (Slot -1 marks a departure). The
	// slice and its points are shared across subscribers: read-only.
	Changed []ChangeSpec
	// PubTime is the wall-clock instant the delta was published to the
	// hub — the base of the propagation-latency measurement. Zero on
	// catch-up and resync deltas, which were never fanned out live.
	PubTime time.Time

	// trace is the mutate request's sampled trace, when it drew one:
	// each subscriber delivery appends a deliver span to it, completing
	// the mutate→WAL→publish→deliver span tree (DESIGN.md §14).
	trace *trace.Trace
	// pubNs is the publish stamp on the trace's monotonic clock, the
	// deliver span's start.
	pubNs int64

	// jsonEl and binEl are the delta's stream elements in each codec,
	// encoded on first use under their Once (outside the session lock:
	// a codec without subscribers costs nothing) and read-only after.
	jsonOnce, binOnce sync.Once
	jsonEl, binEl     []byte
}

// jsonFrame returns d's ndjson stream element: the bytes
// json.Encoder.Encode(deltaWire(d)) writes, encoded on the first call
// and shared by every later caller. Safe for concurrent use.
func (d *Delta) jsonFrame() []byte {
	d.jsonOnce.Do(func() { d.jsonEl = jsonLine(deltaWire(d)) })
	return d.jsonEl
}

// subscriber is one attached stream: a bounded delta queue plus the
// terminal reason. reason is written under the hub lock strictly before
// ch is closed, so a receiver that observed the close may read it
// without further synchronization.
type subscriber struct {
	ch     chan *Delta
	reason string
	// note names this subscriber in deliver spans ("sub-N", N from the
	// server-wide attach sequence), precomputed at attach so the relay
	// hot path never formats.
	note string
	// lastEpoch is the latest epoch the relay has delivered (attach
	// epoch until then); lastPubNs the publish wall-clock of the latest
	// live delta delivered (0 until one arrives). Both feed the lag
	// watermarks (/statusz, metrics) — written by the relay goroutine,
	// read by the cold statusz/scrape path, hence atomics.
	lastEpoch atomic.Uint64
	lastPubNs atomic.Int64
	// delivered counts live deliveries for propagation-histogram
	// decimation. Only the subscriber's own consumer (the relay
	// goroutine or the in-process Mark caller) touches it, so it is a
	// plain field, not an atomic.
	delivered uint64
}

// propSampleMask decimates shared propagation-histogram records to one
// in eight deliveries per subscriber: the histogram's three shared
// atomics would otherwise serialize fan-out at 10k+ subscribers, while
// one-in-eight keeps quantile estimates stable at any realistic rate.
// Traced deltas always record, so exemplars stay coherent. The per-
// subscriber lag marks are exact regardless — they are uncontended.
const propSampleMask = 7

// subHub is a session's subscriber set. Attach and publish run under
// the owning session's mutex (hub lock nested inside), so a subscriber
// can never miss the epoch it attached at; detach takes only the hub
// lock, and so does hangup, so a disconnecting client never touches
// the mutate path.
type subHub struct {
	mu   sync.Mutex
	subs map[*subscriber]struct{}
}

// attach adds sub unless the session already has max subscribers.
func (h *subHub) attach(sub *subscriber, max int) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.subs) >= max {
		return false
	}
	if h.subs == nil {
		h.subs = make(map[*subscriber]struct{})
	}
	h.subs[sub] = struct{}{}
	return true
}

// detach removes sub if still attached (false when the hub already
// dropped or closed it). It never closes the channel — the hub owns
// closes (publish, closeAll, hangup), the streamer owns detach.
func (h *subHub) detach(sub *subscriber) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.subs[sub]; !ok {
		return false
	}
	delete(h.subs, sub)
	return true
}

// hangup ends a relay whose client hung up: if sub is still attached
// it is removed and its queue closed with no reason, so the relay's
// receive loop ends without a bye. It takes only the hub lock.
func (h *subHub) hangup(sub *subscriber) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.subs[sub]; ok {
		delete(h.subs, sub)
		close(sub.ch)
	}
}

// active reports whether any subscriber is attached — the mutate path's
// cheap pre-check before it builds a Delta.
func (h *subHub) active() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.subs) > 0
}

// publish hands d to every subscriber without ever blocking: a full
// queue means the subscriber cannot keep up, so it is dropped on the
// spot (reason set, channel closed) rather than stalling the mutation
// pipeline. Returns the deliveries and drops.
func (h *subHub) publish(d *Delta) (delivered, dropped int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for sub := range h.subs {
		select {
		case sub.ch <- d:
			delivered++
		default:
			delete(h.subs, sub)
			sub.reason = byeSlow
			close(sub.ch)
			dropped++
		}
	}
	return delivered, dropped
}

// closeAll terminates every subscriber with the given reason (session
// eviction) and returns how many were closed.
func (h *subHub) closeAll(reason string) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := len(h.subs)
	for sub := range h.subs {
		delete(h.subs, sub)
		sub.reason = reason
		close(sub.ch)
	}
	return n
}

// DecodeSubscribeRequest parses a subscribe request body and enforces
// its structural contract: valid JSON and a well-formed window within
// lim.MaxWindow points. It is the JSON decoding funnel of the subscribe
// endpoint (fuzzed by FuzzDecodeSubscribeRequest) under the same
// never-panic contract as DecodeMutateRequest. Violations wrap ErrSpec
// (400) or ErrLimit (413).
func DecodeSubscribeRequest(data []byte, lim Limits) (SubscribeRequest, lattice.Window, error) {
	lim = lim.withDefaults()
	var req SubscribeRequest
	if err := json.Unmarshal(data, &req); err != nil {
		return SubscribeRequest{}, lattice.Window{}, fmt.Errorf("%w: decoding request: %v", ErrSpec, err)
	}
	win, err := req.Window.Window()
	if err != nil {
		return SubscribeRequest{}, lattice.Window{}, fmt.Errorf("%w: %v", ErrSpec, err)
	}
	size, err := win.SizeChecked()
	if err != nil || size > lim.MaxWindow {
		return SubscribeRequest{}, lattice.Window{}, fmt.Errorf("%w: window %s exceeds limit %d points",
			ErrLimit, win, lim.MaxWindow)
	}
	return req, win, nil
}

// Subscription is an in-process subscriber feed (Server.Subscribe): the
// attach-time hello, any catch-up deltas that close the gap from the
// requested epoch, and the live delta channel. C closes when the server
// stops pushing (slow-consumer drop or session eviction); Reason then
// says why. Callers that stop reading must Close, or the feed lingers
// until the hub drops it as slow.
type Subscription struct {
	// Hello is the session state at attach time.
	Hello SubscribeHello
	// Catch holds the deltas that bring a stale subscriber from its
	// requested epoch up to Hello.Epoch, oldest first (nil when the
	// subscriber attached current). Apply them before reading C.
	Catch []*Delta
	// C delivers every epoch published after Hello.Epoch, in order.
	C <-chan *Delta

	sub  *subscriber
	sess *dynSession
	srv  *Server
	done func()
}

// Mark records one delivered delta for this feed: lag-watermark
// bookkeeping, the propagation-latency histogram, and the delta's
// deliver span. The wire relays call it per send; in-process consumers
// (embedders, the push bench) should call it per received delta so
// /statusz lag watermarks cover them too. Harmless to skip — the feed
// still works, it just reads as lagging.
func (f *Subscription) Mark(d *Delta) { f.srv.markDelivered(f.sub, d) }

// markDelivered is the delivery bookkeeping behind Subscription.Mark
// and the wire relays: advance the subscriber's lag marks, record
// propagation latency for live deltas, and complete the publishing
// trace's span tree with a deliver span.
func (s *Server) markDelivered(sub *subscriber, d *Delta) {
	sub.lastEpoch.Store(d.Epoch)
	if d.PubTime.IsZero() {
		return // catch-up or resync delta: never fanned out live
	}
	sub.lastPubNs.Store(d.PubTime.UnixNano())
	n := sub.delivered
	sub.delivered = n + 1
	if d.trace == nil && n&propSampleMask != 0 {
		return
	}
	lat := time.Since(d.PubTime)
	s.met.propagationNs.Record(uint64(lat))
	if d.trace != nil {
		d.trace.EpochNoteSpan("deliver", sub.note, int64(d.Epoch), d.pubNs, d.trace.Clock())
		s.met.recordExemplar(&PropExemplar{
			TraceID: d.trace.ID().String(), Epoch: d.Epoch, LatencyNs: int64(lat)})
	}
}

// Reason returns why the feed ended ("" while C is open). Valid only
// after a receive from C observed it closed.
func (f *Subscription) Reason() string { return f.sub.reason }

// Close detaches the feed. Idempotent; safe concurrently with the
// server dropping the feed on its own.
func (f *Subscription) Close() {
	f.sess.hub.detach(f.sub)
	if f.done != nil {
		f.done()
		f.done = nil
	}
}

// Subscribe attaches an in-process subscriber to the mutation session
// for (plan, window) — the push plane without HTTP framing, for
// embedders and the push benchmarks. epoch has SubscribeRequest.Epoch
// semantics (nil: open with a full resync delta). The returned feed
// must be Closed when done.
func (s *Server) Subscribe(spec PlanSpec, ws WindowSpec, epoch *uint64) (*Subscription, error) {
	plan, err := s.reg.GetSpec(spec)
	if err != nil {
		return nil, err
	}
	win, err := ws.Window()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSpec, err)
	}
	if win.Dim() != plan.Tile().Dim() {
		return nil, fmt.Errorf("%w: window dimension %d ≠ plan dimension %d", ErrSpec, win.Dim(), plan.Tile().Dim())
	}
	var e uint64
	if epoch != nil {
		e = *epoch
	}
	feed, _, err := s.subscribeAttach(plan, win, epoch != nil, e)
	return feed, err
}

// subscribeAttach resolves the live session for (plan, win), attaches a
// subscriber, and computes the catch-up deltas for the client's epoch:
// none when current, per-epoch WAL replays when the persisted log
// covers the gap, one full resync delta otherwise (unknown or future
// epoch, no persistence, gap not covered). On failure the returned
// status is the HTTP answer (503 when the session's subscriber cap is
// reached, 500 on a session-table failure).
func (s *Server) subscribeAttach(plan *core.Plan, win lattice.Window, hasEpoch bool, epoch uint64) (*Subscription, int, error) {
	maxSubs := s.opts.MaxSubscribers
	queue := s.opts.SubscribeQueue
	for {
		sess, err := s.sessions.get(plan, win)
		if err != nil {
			return nil, http.StatusInternalServerError, err
		}
		sess.mu.Lock()
		if sess.gone {
			// Evicted between lookup and lock (same race as mutateCore):
			// its hub is closed; attach to the live successor instead.
			sess.mu.Unlock()
			continue
		}
		sub := &subscriber{ch: make(chan *Delta, queue),
			note: fmt.Sprintf("sub-%d", s.subSeq.Add(1))}
		if !sess.hub.attach(sub, maxSubs) {
			sess.mu.Unlock()
			return nil, http.StatusServiceUnavailable,
				fmt.Errorf("session has %d subscribers (limit): retry or raise MaxSubscribers", maxSubs)
		}
		cur := sess.epoch
		sub.lastEpoch.Store(cur)
		feed := &Subscription{
			Hello: SubscribeHello{Signature: plan.Signature(), Epoch: cur,
				M: sess.mut.Slots(), Alive: sess.mut.AliveCount()},
			C:    sub.ch,
			sub:  sub,
			sess: sess,
			srv:  s,
		}
		needWAL := false
		switch {
		case hasEpoch && epoch == cur:
			// Current: the stream resumes with the next published delta.
		case hasEpoch && epoch < cur && sess.disk != nil:
			// Stale with a persisted history: try the WAL outside the
			// session lock (reading files under it would stall mutators).
			needWAL = true
		default:
			// Unknown base (no epoch, future epoch, or no persisted
			// history): full resync, captured under the lock so it is
			// exactly the assignment at cur.
			feed.Catch = []*Delta{fullDeltaLocked(sess)}
			s.recordResync()
		}
		sess.mu.Unlock()
		if needWAL {
			deltas, ok := s.sessions.store.catchUp(plan, win, epoch, cur, s.sessions.dynOpts(win))
			if ok {
				feed.Catch = deltas
				s.met.subCatchups.Inc()
			} else {
				// Gap not covered (snapshot past the client's epoch, torn
				// tail, rotated log): fall back to a full resync. The
				// session may have moved on — or been evicted — since the
				// attach; re-take the lock and re-stamp the hello.
				sess.mu.Lock()
				if sess.gone {
					sess.mu.Unlock()
					sess.hub.detach(sub)
					continue
				}
				feed.Hello.Epoch = sess.epoch
				sub.lastEpoch.Store(sess.epoch)
				feed.Hello.M = sess.mut.Slots()
				feed.Hello.Alive = sess.mut.AliveCount()
				feed.Catch = []*Delta{fullDeltaLocked(sess)}
				sess.mu.Unlock()
				s.recordResync()
			}
		}
		s.sessions.recordSubscribe()
		s.met.subsTotal.Inc()
		s.met.subsLive.Add(1)
		feed.done = func() {
			s.sessions.subsLive.Add(-1)
			s.met.subsLive.Add(-1)
		}
		return feed, http.StatusOK, nil
	}
}

// fullDeltaLocked captures a resync delta — the complete live
// assignment at the session's current epoch. Caller holds sess.mu.
func fullDeltaLocked(sess *dynSession) *Delta {
	d := &Delta{Epoch: sess.epoch, M: sess.mut.Slots(), Alive: sess.mut.AliveCount(), Full: true}
	d.Changed = make([]ChangeSpec, 0, sess.mut.AliveCount())
	sess.mut.EachAssignment(func(p lattice.Point, slot int) bool {
		d.Changed = append(d.Changed, ChangeSpec{P: p.Clone(), Slot: slot})
		return true
	})
	return d
}

// recordResync tallies one full-resync attach.
func (s *Server) recordResync() { s.met.subResyncs.Inc() }

// handleSubscribe opens a push stream in either codec: decode the
// request, attach to the session, answer the hello plus any catch-up
// deltas, then relay published deltas until the client leaves or the
// server terminates the stream (slow drop, eviction) with a bye. The
// relay waits on its queue alone: a client hang-up reaches it through
// the hub, which closes the queue with no reason (hangup), so the
// stream ends without a bye. Failures before the hello answer an error
// reply; mid-stream failures end the stream without a bye (the
// truncation is the client's signal). The response streams
// indefinitely, so the handler clears the server's write deadline for
// it and flushes per element.
func (s *Server) handleSubscribe(w http.ResponseWriter, r *http.Request, cd codec, tr *reqTrace) {
	decodeStart := time.Now()
	buf := s.bufs.Get().(*queryBuf)
	if !s.readBody(w, r, cd, buf) {
		s.bufs.Put(buf)
		return
	}
	req, err := cd.decodeSubscribe(buf.body, tr)
	// The request does not alias the body: give the buffer back before
	// a stream that may last for hours.
	s.bufs.Put(buf)
	if err != nil {
		cd.writeErr(w, wireStatus(err), err.Error())
		return
	}
	plan, ok := s.plan(w, cd, req.Plan)
	if !ok {
		return
	}
	tr.sig = plan.Signature()
	tr.decodeNs = time.Since(decodeStart)
	if req.Window.Dim() != plan.Tile().Dim() {
		cd.writeErr(w, http.StatusBadRequest,
			fmt.Sprintf("window dimension %d ≠ plan dimension %d", req.Window.Dim(), plan.Tile().Dim()))
		return
	}
	feed, status, err := s.subscribeAttach(plan, req.Window, req.HasEpoch, req.Epoch)
	if err != nil {
		cd.writeErr(w, status, err.Error())
		return
	}
	defer feed.Close()
	stop := context.AfterFunc(r.Context(), func() { feed.sess.hub.hangup(feed.sub) })
	defer stop()

	// Best effort: recorders without deadline support still stream.
	st := stream{w: w, rc: http.NewResponseController(w)}
	_ = st.rc.SetWriteDeadline(time.Time{})
	if !cd.subHello(&st, feed.Hello) {
		return
	}
	last := feed.Hello.Epoch
	send := func(d *Delta) bool {
		if !cd.subDelta(&st, d) {
			return false
		}
		s.markDelivered(feed.sub, d)
		last = max(last, d.Epoch)
		return true
	}
	// The catch-up deltas (a full resync holds every live sensor, and
	// its encoded frame) become garbage once sent instead of staying
	// reachable from feed for the whole stream.
	catch := feed.Catch
	feed.Catch = nil
	for _, d := range catch {
		if !send(d) {
			return
		}
	}
	tr.batch = len(catch)
	for d := range feed.C {
		// Skip deltas the catch-up already covered (published while
		// the WAL fallback re-snapshotted at a later epoch).
		if !d.Full && d.Epoch <= last {
			continue
		}
		if !send(d) {
			return
		}
		tr.batch++
	}
	if reason := feed.Reason(); reason != "" {
		cd.subBye(&st, last, reason)
	}
}

func (c jsonCodec) decodeSubscribe(body []byte, _ *reqTrace) (BinSubscribe, error) {
	req, win, err := DecodeSubscribeRequest(body, c.lim)
	if err != nil {
		return BinSubscribe{}, err
	}
	out := BinSubscribe{Plan: BinPlanRef{Spec: req.Plan}, Window: win}
	if req.Epoch != nil {
		out.Epoch, out.HasEpoch = *req.Epoch, true
	}
	return out, nil
}

func (jsonCodec) subHello(st *stream, h SubscribeHello) bool {
	st.w.Header().Set("Content-Type", ndjsonContentType)
	return st.send(jsonLine(h))
}

func (jsonCodec) subDelta(st *stream, d *Delta) bool { return st.send(d.jsonFrame()) }

func (jsonCodec) subBye(st *stream, epoch uint64, reason string) {
	st.send(jsonLine(SubscribeDelta{Epoch: epoch, Bye: reason}))
}

// send writes one complete subscription element and flushes it; false
// once the client is gone (the first failure is sticky).
func (st *stream) send(el []byte) bool {
	if st.err == nil {
		_, st.err = st.w.Write(el)
	}
	if st.err == nil {
		st.err = st.rc.Flush()
	}
	return st.err == nil
}

// jsonLine renders one ndjson stream element: exactly the bytes
// json.Encoder.Encode writes for v (HTML-escaped, newline-terminated).
// The element types hold only numbers, bools, strings and slices of
// them, which always marshal.
func jsonLine(v any) []byte {
	b, _ := json.Marshal(v)
	return append(b, '\n')
}

// ndjsonContentType is the JSON subscription stream's content type:
// one JSON value per line (hello, then deltas).
const ndjsonContentType = "application/x-ndjson"

// deltaWire renders a fan-out delta as its JSON stream element.
func deltaWire(d *Delta) SubscribeDelta {
	return SubscribeDelta{Epoch: d.Epoch, M: d.M, Alive: d.Alive, Full: d.Full, Changed: d.Changed}
}
