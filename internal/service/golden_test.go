package service

// Golden wire test: a fixed request set goes through both codecs to
// every batch endpoint, the mutate endpoint, and a subscribe stream,
// and each reply's status, Content-Type, and exact body bytes (length
// plus SHA-256) must match testdata/wire.golden. Error replies pin the
// status, Content-Type, and codec framing instead of the message text:
// an ErrorResponse body for JSON, an Error frame followed by an End
// frame for binary. Regenerate the golden file with
//
//	go test ./internal/service -run TestWireGolden -update-golden

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"tilingsched/internal/service/binwire"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/wire.golden from the current server")

const goldenPath = "testdata/wire.golden"

// goldenReply is one pinned reply: status, Content-Type, body size and
// hash.
type goldenReply struct {
	status int
	ctype  string
	size   int
	sum    string
}

func (g goldenReply) String() string {
	return fmt.Sprintf("%d %s %d %s", g.status, g.ctype, g.size, g.sum)
}

func newGoldenReply(status int, ctype string, body []byte) goldenReply {
	sum := sha256.Sum256(body)
	return goldenReply{status: status, ctype: ctype, size: len(body), sum: hex.EncodeToString(sum[:])}
}

// readGolden parses the golden file: one "name status content-type
// size sha256" line per case.
func readGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatalf("opening golden file: %v (run with -update-golden to create it)", err)
	}
	defer f.Close()
	out := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, rest, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("golden line %q has no fields", line)
		}
		out[name] = rest
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// goldenCodec is one codec's request encoding for the golden cases.
type goldenCodec struct {
	name  string
	ctype string
	batch func(req BatchRequest, may bool) []byte
	mut   func(t *testing.T, req MutateRequest) []byte
	sub   func(req SubscribeRequest) []byte
}

var goldenCodecs = []goldenCodec{
	{
		name:  "json",
		ctype: "application/json",
		batch: func(req BatchRequest, _ bool) []byte { return mustJSON(req) },
		mut:   func(_ *testing.T, req MutateRequest) []byte { return mustJSON(req) },
		sub:   func(req SubscribeRequest) []byte { return mustJSON(req) },
	},
	{
		name:  "bin",
		ctype: BinaryContentType,
		batch: func(req BatchRequest, may bool) []byte { return encodeBatch(req, may, "") },
		mut: func(t *testing.T, req MutateRequest) []byte {
			e := binwire.Get()
			defer binwire.Put(e)
			if err := EncodeMutateBinary(e, req, ""); err != nil {
				t.Fatal(err)
			}
			return bytes.Clone(e.Bytes())
		},
		sub: func(req SubscribeRequest) []byte {
			e := binwire.Get()
			defer binwire.Put(e)
			EncodeSubscribeBinary(e, req, "")
			return bytes.Clone(e.Bytes())
		},
	},
}

func mustJSON(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return data
}

// postCT POSTs body under the given content type and returns the
// status, the reply's Content-Type, and the raw reply bytes.
func postCT(t *testing.T, srv *httptest.Server, path, ctype string, body []byte) (int, string, []byte) {
	t.Helper()
	resp, err := srv.Client().Post(srv.URL+path, ctype, bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading %s reply: %v", path, err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), data
}

func TestWireGolden(t *testing.T) {
	cross := PlanSpec{Tile: TileSpec{Name: "cross:2:1"}}
	got := make(map[string]goldenReply)
	record := func(name string, status int, ctype string, body []byte) {
		if _, dup := got[name]; dup {
			t.Fatalf("duplicate golden case %s", name)
		}
		got[name] = newGoldenReply(status, ctype, body)
	}

	batches := []struct {
		name string
		req  BatchRequest
	}{
		{"points", BatchRequest{Plan: cross, Points: [][]int{{3, 4}, {0, 0}, {-7, 2}, {100, -250}}, T: 7}},
		{"window", BatchRequest{Plan: cross, Window: &WindowSpec{Lo: []int{-4, -4}, Hi: []int{4, 4}}, T: 3}},
		// 129×129 = 16641 points: more than one binary chunk frame.
		{"bigwindow", BatchRequest{Plan: cross, Window: &WindowSpec{Lo: []int{0, 0}, Hi: []int{128, 128}}, T: -2}},
	}
	win := WindowSpec{Lo: []int{0, 0}, Hi: []int{7, 7}}
	epoch := func(e uint64) *uint64 { return &e }
	mutates := []struct {
		name string
		req  MutateRequest
	}{
		// One event per batch: the order of a multi-event batch's change
		// set is not fixed, so it cannot be pinned byte for byte.
		{"ok", MutateRequest{Plan: cross, Window: win, Epoch: epoch(0), Events: []EventSpec{
			{Op: "join", P: []int{9, 9}}}}},
		{"leave", MutateRequest{Plan: cross, Window: win, Events: []EventSpec{
			{Op: "leave", P: []int{0, 0}}}}},
		// The second join lands on an occupied cell: the first stands.
		{"partial", MutateRequest{Plan: cross, Window: win, Events: []EventSpec{
			{Op: "join", P: []int{10, 10}}, {Op: "join", P: []int{9, 9}}}}},
		{"stale", MutateRequest{Plan: cross, Window: win, Epoch: epoch(0), Events: []EventSpec{
			{Op: "join", P: []int{11, 11}}}}},
		{"full", MutateRequest{Plan: cross, Window: win, Epoch: epoch(3), Full: true}},
	}
	cross3 := PlanSpec{Tile: TileSpec{Name: "cross:3:1"}}
	win3 := WindowSpec{Lo: []int{0, 0, 0}, Hi: []int{3, 3, 3}}

	for _, c := range goldenCodecs {
		srv := newTestServer(t, ServerOptions{})
		for _, b := range batches {
			for _, ep := range []struct {
				path string
				may  bool
			}{{"/v1/slots:batch", false}, {"/v1/maybroadcast:batch", true}} {
				status, ctype, body := postCT(t, srv, ep.path, c.ctype, c.batch(b.req, ep.may))
				name := "slots"
				if ep.may {
					name = "may"
				}
				record(fmt.Sprintf("%s/%s/%s", c.name, name, b.name), status, ctype, body)
			}
		}
		for _, m := range mutates {
			status, ctype, body := postCT(t, srv, "/v1/plan:mutate", c.ctype, c.mut(t, m.req))
			record(fmt.Sprintf("%s/mutate/%s", c.name, m.name), status, ctype, body)
		}
		// A 3-D full read after a mid-window leave and an outside join:
		// base positions in window order with a hole, then the added one.
		for _, ev := range []EventSpec{{Op: "leave", P: []int{1, 2, 1}}, {Op: "join", P: []int{5, 5, 5}}} {
			req := MutateRequest{Plan: cross3, Window: win3, Events: []EventSpec{ev}}
			if status, _, _ := postCT(t, srv, "/v1/plan:mutate", c.ctype, c.mut(t, req)); status != http.StatusOK {
				t.Fatalf("%s: 3-D %s: status %d", c.name, ev.Op, status)
			}
		}
		status, ctype, body := postCT(t, srv, "/v1/plan:mutate", c.ctype,
			c.mut(t, MutateRequest{Plan: cross3, Window: win3, Epoch: epoch(2), Full: true}))
		record(c.name+"/mutate/full3d", status, ctype, body)
		status, ctype, body = goldenSubscribe(t, c)
		record(c.name+"/subscribe/evicted", status, ctype, body)
	}

	if *updateGolden {
		names := make([]string, 0, len(got))
		for name := range got {
			names = append(names, name)
		}
		sort.Strings(names)
		var out strings.Builder
		out.WriteString("# name status content-type size sha256 (TestWireGolden)\n")
		for _, name := range names {
			fmt.Fprintf(&out, "%s %s\n", name, got[name])
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readGolden(t)
	for name, g := range got {
		w, ok := want[name]
		if !ok {
			t.Errorf("%s: no golden entry (got %s)", name, g)
			continue
		}
		if g.String() != w {
			t.Errorf("%s: reply changed\n got %s\nwant %s", name, g, w)
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: golden entry not produced", name)
		}
	}
}

// goldenSubscribe runs one scripted subscription through codec c and
// returns the whole stream: attach at epoch 0 (hello only), one mutate
// (one delta), then a mutate on another window, which evicts the
// session from a one-session table and ends the stream with a bye.
func goldenSubscribe(t *testing.T, c goldenCodec) (int, string, []byte) {
	t.Helper()
	srv := newTestServer(t, ServerOptions{MaxSessions: 1})
	cross := PlanSpec{Tile: TileSpec{Name: "cross:2:1"}}
	win := WindowSpec{Lo: []int{0, 0}, Hi: []int{4, 4}}
	zero := uint64(0)
	req, err := http.NewRequest("POST", srv.URL+"/v1/plan:subscribe",
		bytes.NewReader(c.sub(SubscribeRequest{Plan: cross, Window: win, Epoch: &zero})))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", c.ctype)
	// Do returns once the hello is flushed, i.e. after the attach.
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatalf("POST subscribe: %v", err)
	}
	defer resp.Body.Close()
	mutate := func(w WindowSpec, p []int) {
		status, _, body := postCT(t, srv, "/v1/plan:mutate", "application/json",
			mustJSON(MutateRequest{Plan: cross, Window: w, Events: []EventSpec{{Op: "join", P: p}}}))
		if status != http.StatusOK {
			t.Fatalf("mutate status %d: %s", status, body)
		}
	}
	mutate(win, []int{6, 6})
	mutate(WindowSpec{Lo: []int{0, 0}, Hi: []int{3, 3}}, []int{5, 5})
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading stream: %v", err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), data
}

// TestWireGoldenErrors pins the error framing of both codecs on every
// endpoint that takes them: the status, the Content-Type, and the body
// shape (one ErrorResponse line for JSON; an Error frame carrying the
// status, then an End frame, then nothing for binary).
func TestWireGoldenErrors(t *testing.T) {
	cross := PlanSpec{Tile: TileSpec{Name: "cross:2:1"}}
	bad := PlanSpec{Tile: TileSpec{Name: "nope"}}
	inexact := PlanSpec{Tile: TileSpec{Points: [][]int{{0, 0}, {2, 0}}}}
	win := WindowSpec{Lo: []int{0, 0}, Hi: []int{3, 3}}
	cases := []struct {
		name   string
		path   string
		body   func(c goldenCodec) []byte
		status int
	}{
		{"unknown tile", "/v1/slots:batch", func(c goldenCodec) []byte {
			return c.batch(BatchRequest{Plan: bad, Points: [][]int{{0, 0}}}, false)
		}, http.StatusBadRequest},
		{"inexact tile", "/v1/maybroadcast:batch", func(c goldenCodec) []byte {
			return c.batch(BatchRequest{Plan: inexact, Points: [][]int{{0, 0}}}, true)
		}, http.StatusUnprocessableEntity},
		{"batch over limit", "/v1/slots:batch", func(c goldenCodec) []byte {
			return c.batch(BatchRequest{Plan: cross, Points: [][]int{{0, 0}, {1, 0}, {2, 0}, {3, 0}, {4, 0}}}, false)
		}, http.StatusRequestEntityTooLarge},
		{"window over limit", "/v1/maybroadcast:batch", func(c goldenCodec) []byte {
			return c.batch(BatchRequest{Plan: cross, Window: &WindowSpec{Lo: []int{0, 0}, Hi: []int{99, 99}}}, true)
		}, http.StatusRequestEntityTooLarge},
		{"wrong-dimension point", "/v1/slots:batch", func(c goldenCodec) []byte {
			return c.batch(BatchRequest{Plan: cross, Points: [][]int{{1, 2, 3}}}, false)
		}, http.StatusBadRequest},
		{"malformed batch", "/v1/slots:batch", func(goldenCodec) []byte { return []byte("\x01{") }, http.StatusBadRequest},
		{"oversized body", "/v1/slots:batch", func(goldenCodec) []byte { return bytes.Repeat([]byte{' '}, 4096) },
			http.StatusRequestEntityTooLarge},
		{"mutate unknown tile", "/v1/plan:mutate", func(c goldenCodec) []byte {
			return c.mut(t, MutateRequest{Plan: bad, Window: win, Full: true})
		}, http.StatusBadRequest},
		{"mutate window dimension", "/v1/plan:mutate", func(c goldenCodec) []byte {
			return c.mut(t, MutateRequest{Plan: cross, Window: WindowSpec{Lo: []int{0}, Hi: []int{3}}, Full: true})
		}, http.StatusBadRequest},
		{"mutate over margin", "/v1/plan:mutate", func(c goldenCodec) []byte {
			return c.mut(t, MutateRequest{Plan: cross, Window: win, Events: []EventSpec{{Op: "join", P: []int{99, 0}}}})
		}, http.StatusRequestEntityTooLarge},
		{"subscribe unknown tile", "/v1/plan:subscribe", func(c goldenCodec) []byte {
			return c.sub(SubscribeRequest{Plan: bad, Window: win})
		}, http.StatusBadRequest},
		{"subscribe window over limit", "/v1/plan:subscribe", func(c goldenCodec) []byte {
			return c.sub(SubscribeRequest{Plan: cross, Window: WindowSpec{Lo: []int{0, 0}, Hi: []int{99, 99}}})
		}, http.StatusRequestEntityTooLarge},
	}
	for _, c := range goldenCodecs {
		srv := newTestServer(t, ServerOptions{MaxBatch: 4, MaxWindow: 100, MaxBody: 1024})
		for _, tc := range cases {
			status, ctype, body := postCT(t, srv, tc.path, c.ctype, tc.body(c))
			checkErrorReply(t, c.name+"/"+tc.name, c, status, ctype, body, tc.status)
		}
	}
	// A signature reference the registry has never seen is binary-only.
	srv := newTestServer(t, ServerOptions{})
	bin := goldenCodecs[1]
	status, ctype, body := postCT(t, srv, "/v1/slots:batch", bin.ctype,
		encodeBatch(BatchRequest{Points: [][]int{{0, 0}}}, false, "no-such-signature"))
	checkErrorReply(t, "bin/unknown signature", bin, status, ctype, body, http.StatusNotFound)
}

func checkErrorReply(t *testing.T, name string, c goldenCodec, status int, ctype string, body []byte, want int) {
	t.Helper()
	if status != want {
		t.Errorf("%s: status %d, want %d (%q)", name, status, want, body)
		return
	}
	if ctype != c.ctype {
		t.Errorf("%s: Content-Type %q, want %q", name, ctype, c.ctype)
	}
	if c.ctype != BinaryContentType {
		var er ErrorResponse
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&er); err != nil || er.Error == "" {
			t.Errorf("%s: body %q is not an ErrorResponse", name, body)
			return
		}
		if canon := append(mustJSON(er), '\n'); !bytes.Equal(body, canon) {
			t.Errorf("%s: body %q, want exactly %q", name, body, canon)
		}
		return
	}
	r := binwire.NewReader(body)
	typ, p := r.Frame()
	if r.Err() != nil || typ != binwire.FrameError {
		t.Errorf("%s: first frame %#x (%v), want an Error frame", name, typ, r.Err())
		return
	}
	if fs := p.Uvarint(); fs != uint64(want) {
		t.Errorf("%s: Error frame status %d, want %d", name, fs, want)
	}
	if msg := p.String(maxWireErrMsg); msg == "" {
		t.Errorf("%s: Error frame has no message", name)
	}
	p.Done()
	typ, p = r.Frame()
	p.Done()
	r.Done()
	if r.Err() != nil || p.Err() != nil || typ != binwire.FrameEnd {
		t.Errorf("%s: want exactly Error then End frames, got %#x after Error (%v)", name, typ, r.Err())
	}
}
