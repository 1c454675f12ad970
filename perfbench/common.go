package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"maps"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"tilingsched/internal/core"
	"tilingsched/internal/service"
	"tilingsched/internal/service/binwire"
)

// memWriter is an in-memory http.ResponseWriter for in-process
// ServeHTTP calls.
type memWriter struct {
	h    http.Header
	code int
	buf  bytes.Buffer
}

func newMemWriter() *memWriter { return &memWriter{h: http.Header{}} }

func (w *memWriter) Header() http.Header { return w.h }

func (w *memWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

func (w *memWriter) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return w.buf.Write(p)
}

func (w *memWriter) Flush() {}

// contentType returns the request content type of a codec.
func contentType(bin bool) string {
	if bin {
		return service.BinaryContentType
	}
	return "application/json"
}

// serveInProcess runs one request through h.ServeHTTP and returns its
// status, body and the ServeHTTP time.
func serveInProcess(h http.Handler, path string, bin bool, body []byte) (int, []byte, time.Duration) {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", contentType(bin))
	w := newMemWriter()
	start := time.Now()
	h.ServeHTTP(w, req)
	return w.code, w.buf.Bytes(), time.Since(start)
}

// loopback serves a handler on a real 127.0.0.1 listener and holds a
// client limited to conns connections.
type loopback struct {
	srv    *http.Server
	url    string
	client *http.Client
	done   chan struct{}
}

func startLoopback(h http.Handler, conns int) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	lb := &loopback{
		srv:  &http.Server{Handler: h},
		url:  "http://" + ln.Addr().String(),
		done: make(chan struct{}),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		}},
	}
	go func() {
		defer close(lb.done)
		_ = lb.srv.Serve(ln)
	}()
	return lb, nil
}

// post sends one request and reads the whole reply.
func (lb *loopback) post(path string, bin bool, body []byte) (int, []byte, error) {
	resp, err := lb.client.Post(lb.url+path, contentType(bin), bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

func (lb *loopback) close() {
	lb.client.CloseIdleConnections()
	_ = lb.srv.Shutdown(context.Background())
	<-lb.done
}

// streamWriter is the in-memory response writer of one push subscriber
// (a POST /v1/plan:subscribe served in-process). Each flush hands it one
// complete stream element; it reads the element's kind and epoch from
// the first bytes, stamps the receipt time, and passes the hello and
// every delta to fold when set (decoding subscribers), to be read once
// the stream has stopped.
type streamWriter struct {
	bin  bool
	fold *streamFold
	// onDelta is called at each complete delta element with its epoch
	// and size; it runs on the subscriber's serving goroutine.
	onDelta func(epoch uint64, size int, at time.Time)

	h     http.Header
	code  int
	cur   []byte
	hello bool
	byes  int
	errs  int
}

func (w *streamWriter) Header() http.Header { return w.h }

func (w *streamWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

func (w *streamWriter) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	w.cur = append(w.cur, p...)
	return len(p), nil
}

// Flush completes one stream element.
func (w *streamWriter) Flush() {
	at := time.Now()
	el := w.cur
	w.cur = w.cur[:0]
	if len(el) == 0 {
		return
	}
	if !w.hello {
		w.hello = true
		if w.fold != nil {
			w.fold.add(el)
		}
		return
	}
	epoch, isDelta, err := elementEpoch(el, w.bin)
	switch {
	case err != nil:
		w.errs++
	case !isDelta:
		w.byes++
	default:
		w.onDelta(epoch, len(el), at)
		if w.fold != nil {
			w.fold.add(el)
		}
	}
}

// streamFold applies a subscriber's deltas to its copy of the session's
// assignment as they arrive, one element at a time, with the client's
// stream decoder (service.OpenSubscribeStream) reading from the elements
// handed to it so far. It never holds more than the element at hand.
type streamFold struct {
	bin  bool
	in   foldInput
	st   *service.SubscribeStream
	got  map[[2]int]int
	last uint64
	// err is the first failure: a decode error, an epoch out of order
	// or a full resync.
	err error
}

func newStreamFold(bin bool, initial map[[2]int]int) *streamFold {
	return &streamFold{bin: bin, got: maps.Clone(initial)}
}

// add decodes one complete stream element, the hello first.
func (f *streamFold) add(el []byte) {
	if f.err != nil {
		return
	}
	f.in.buf = append(f.in.buf, el...)
	if f.st == nil {
		f.st, f.err = service.OpenSubscribeStream(&f.in, contentType(f.bin))
		if f.err == nil {
			f.last = f.st.Hello().Epoch
		}
		return
	}
	d, err := f.st.Next()
	if err == nil && (d.Epoch != f.last+1 || d.Full) {
		err = fmt.Errorf("epoch %d after %d (full %v)", d.Epoch, f.last, d.Full)
	}
	if err != nil {
		f.err = err
		return
	}
	f.last = d.Epoch
	for _, ch := range d.Changed {
		k := [2]int{ch.P[0], ch.P[1]}
		if ch.Slot < 0 {
			delete(f.got, k)
		} else {
			f.got[k] = ch.Slot
		}
	}
}

// foldInput hands the stream decoder the bytes of the elements added so
// far. The decoder reads one element per call and the fold calls it only
// once that element is whole, so it never reads past the end.
type foldInput struct{ buf []byte }

func (r *foldInput) Read(p []byte) (int, error) {
	if len(r.buf) == 0 {
		return 0, io.EOF
	}
	n := copy(p, r.buf)
	r.buf = r.buf[n:]
	return n, nil
}

var errElement = errors.New("malformed stream element")

// elementEpoch reads a stream element's epoch without decoding the rest:
// a JSON delta line starts {"epoch":N, and a binary delta frame is
// length, type FrameDelta, then the epoch as a uvarint. A terminal bye
// (JSON with "bye", binary FrameSubBye) reports isDelta false.
func elementEpoch(el []byte, bin bool) (epoch uint64, isDelta bool, err error) {
	if bin {
		if len(el) < 6 {
			return 0, false, errElement
		}
		switch el[4] {
		case binwire.FrameDelta:
		case binwire.FrameSubBye:
			return 0, false, nil
		default:
			return 0, false, fmt.Errorf("%w: frame type %#x", errElement, el[4])
		}
		var shift uint
		for _, b := range el[5:] {
			epoch |= uint64(b&0x7f) << shift
			if b < 0x80 {
				return epoch, true, nil
			}
			shift += 7
		}
		return 0, false, errElement
	}
	const prefix = `{"epoch":`
	if !bytes.HasPrefix(el, []byte(prefix)) {
		return 0, false, errElement
	}
	if bytes.Contains(el, []byte(`"bye":`)) {
		return 0, false, nil
	}
	n := 0
	for _, c := range el[len(prefix):] {
		if c < '0' || c > '9' {
			break
		}
		epoch = epoch*10 + uint64(c-'0')
		n++
	}
	if n == 0 {
		return 0, false, errElement
	}
	return epoch, true, nil
}

// subscriber is one in-process push stream: ServeHTTP of a subscribe
// request running on its own goroutine until cancel.
type subscriber struct {
	w      *streamWriter
	cancel context.CancelFunc
	done   chan struct{}
}

// attachSubscriber starts a subscribe stream for (spec, window) at epoch
// on h and waits until its hello has been written. fold, when not nil,
// decodes and applies the stream's deltas.
func attachSubscriber(h http.Handler, body []byte, bin bool, fold *streamFold, onDelta func(uint64, int, time.Time)) (*subscriber, error) {
	w := &streamWriter{bin: bin, fold: fold, onDelta: onDelta, h: http.Header{}}
	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest(http.MethodPost, "/v1/plan:subscribe", bytes.NewReader(body)).WithContext(ctx)
	req.Header.Set("Content-Type", contentType(bin))
	sub := &subscriber{w: w, cancel: cancel, done: make(chan struct{})}
	ready := make(chan struct{})
	go func() {
		defer close(sub.done)
		h.ServeHTTP(&helloSignal{streamWriter: w, ready: ready}, req)
	}()
	select {
	case <-ready:
		return sub, nil
	case <-sub.done:
		cancel()
		return nil, fmt.Errorf("subscribe answered %d before streaming", w.code)
	}
}

// helloSignal closes ready at the first flush (the hello).
type helloSignal struct {
	*streamWriter
	ready chan struct{}
	once  sync.Once
}

func (h *helloSignal) Flush() {
	h.streamWriter.Flush()
	h.once.Do(func() { close(h.ready) })
}

// compileRounds is how many times compileMs compiles each plan.
const compileRounds = 5

// compileMs is core.compile_ms for the plans a workload serves: the
// benchmark's own core.NewPlan calls, the median over compileRounds
// rounds of the mean time per plan, in milliseconds.
func compileMs(specs []service.PlanSpec) (float64, error) {
	rounds := make([]float64, compileRounds)
	for i := range rounds {
		var total time.Duration
		for _, spec := range specs {
			lat, tile, err := spec.Resolve()
			if err != nil {
				return 0, err
			}
			t := time.Now()
			if _, err := core.NewPlan(lat, tile); err != nil {
				return 0, err
			}
			total += time.Since(t)
		}
		rounds[i] = float64(total) / 1e6 / float64(len(specs))
	}
	return median(rounds), nil
}

// stop ends the stream and waits for its goroutine.
func (s *subscriber) stop() {
	s.cancel()
	<-s.done
}
