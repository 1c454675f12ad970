package service

// The full-read path: a full:true mutate captures the live assignment in
// one flat pass under the session lock (liveChangesLocked) and encodes
// it after the lock without reflection (appendMutateJSON, or the binary
// frame). These tests pin the JSON bytes to encoding/json, the capture
// and encode to a constant allocation count, and each read's
// self-consistency under concurrent mutates and resync subscribes.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"tilingsched/internal/dynamic"
	"tilingsched/internal/lattice"
	"tilingsched/internal/service/binwire"
)

// TestMutateJSONBytes: the JSON mutate reply equals what
// json.NewEncoder(w).Encode(resp) writes, byte for byte, through the
// appender and through jsonCodec.writeMutate with a reused pool buffer.
func TestMutateJSONBytes(t *testing.T) {
	rows := []struct {
		name string
		resp MutateResponse
	}{
		{"stale-nil-changed", MutateResponse{Signature: "abc", Epoch: 7, M: 5, Alive: 24,
			Error: "stale epoch 3 (current 7): resync with full=true"}},
		{"empty-changed", MutateResponse{Signature: "abc", Epoch: 1, M: 5, Alive: 25, Changed: []ChangeSpec{}}},
		{"negative-3d", MutateResponse{Signature: "s", Epoch: 12, M: 7, Alive: 3,
			Disruption: DisruptionSpec{Events: 2, Joined: 1, Departed: 1, Reassigned: 4, ColorsDelta: -2,
				FullRecolor: true, Compacted: true},
			Changed: []ChangeSpec{{P: []int{-3, 0, 41}, Slot: 6}, {P: []int{math.MinInt64, -1, math.MaxInt64}, Slot: -1},
				{P: []int{5, -250, 0}, Slot: 0}}}},
		{"nil-point", MutateResponse{Signature: "s", Changed: []ChangeSpec{{Slot: 2}, {P: []int{}, Slot: 3}}}},
		{"max-epoch", MutateResponse{Signature: "s", Epoch: math.MaxUint64, M: math.MaxInt32, Alive: 1,
			Changed: []ChangeSpec{{P: []int{1, 1}, Slot: 4}}}},
		{"partial-400", MutateResponse{Signature: "sig", Epoch: 4, M: 5, Alive: 26,
			Disruption: DisruptionSpec{Events: 1, Joined: 1},
			Changed:    []ChangeSpec{{P: []int{10, 10}, Slot: 2}},
			Error:      "dynamic: invalid mutation: join (9,9): position already hosts a sensor"}},
		{"escapes", MutateResponse{Signature: "<a&b>\"q\"\u2028\xff\\", Epoch: 2,
			Changed: []ChangeSpec{{P: []int{0}, Slot: 1}},
			Error:   "bad <script>&\"x\"\u2028\u2029\xfe\x00\t end"}},
	}
	w := httptest.NewRecorder()
	// Grow the pooled buffer first, so every row below reuses a buffer
	// that once held more bytes than the row writes.
	big := MutateResponse{Changed: make([]ChangeSpec, 500)}
	for i := range big.Changed {
		big.Changed[i] = ChangeSpec{P: []int{i, -i}, Slot: i % 5}
	}
	jsonCodec{}.writeMutate(w, http.StatusOK, big)
	for _, r := range rows {
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(r.resp); err != nil {
			t.Fatal(err)
		}
		if got := appendMutateJSON(nil, r.resp); !bytes.Equal(got, want.Bytes()) {
			t.Errorf("%s: appender\n got %s\nwant %s", r.name, got, want.Bytes())
		}
		w := httptest.NewRecorder()
		jsonCodec{}.writeMutate(w, http.StatusConflict, r.resp)
		if w.Code != http.StatusConflict || w.Header().Get("Content-Type") != "application/json" {
			t.Errorf("%s: status %d, Content-Type %q", r.name, w.Code, w.Header().Get("Content-Type"))
		}
		if !bytes.Equal(w.Body.Bytes(), want.Bytes()) {
			t.Errorf("%s: writeMutate\n got %s\nwant %s", r.name, w.Body.Bytes(), want.Bytes())
		}
	}
}

// TestFullReadAllocs: a full read — capture under the session lock plus
// the reply encode — allocates the same small number of objects
// whatever the session size, in both codecs.
func TestFullReadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops buffers at random")
	}
	s := NewServer(NewRegistry(2), ServerOptions{})
	plan := testPlan(t)
	wins := make(map[int]lattice.Window)
	for _, side := range []int{16, 64} {
		wins[side] = mustWindow(t, []int{0, 0}, []int{side - 1, side - 1})
		// One leave, so the read skips a tombstone.
		leave := []dynamic.Event{{Kind: dynamic.Leave, P: lattice.Pt(side/2, side/3)}}
		if _, status, err := s.mutateCore(plan, wins[side], false, 0, false, leave, nil); err != nil || status != http.StatusOK {
			t.Fatalf("leave: status %d, %v", status, err)
		}
	}
	w := &discardStream{h: http.Header{}}
	for _, cd := range []codec{jsonCodec{}, binCodec{}} {
		read := func(win lattice.Window, full bool, n int) float64 {
			return testing.AllocsPerRun(50, func() {
				resp, status, err := s.mutateCore(plan, win, false, 0, full, nil, nil)
				if err != nil || len(resp.Changed) != n {
					t.Fatalf("read (full %v): %v, %d changes, want %d", full, err, len(resp.Changed), n)
				}
				cd.writeMutate(w, status, resp)
			})
		}
		// An empty mutate pays the same per-request session lookup and
		// reply header; the full read may add only its capture.
		base := read(wins[16], false, 0)
		small, large := read(wins[16], true, 16*16-1), read(wins[64], true, 64*64-1)
		t.Logf("%T: empty mutate %v objects, full read %v (16×16) and %v (64×64)", cd, base, small, large)
		if small != large || large-base > 6 {
			t.Errorf("%T full read allocates %v (16×16) and %v (64×64) objects, an empty mutate %v: want the same small constant",
				cd, small, large, base)
		}
	}
}

// TestFullReadConcurrent runs full reads in both codecs, mutates, and
// resync subscribes on one session at once. Every full read and every
// resync snapshot must be self-consistent: one entry per live sensor,
// no position twice, every slot in [0, m).
func TestFullReadConcurrent(t *testing.T) {
	s := NewServer(NewRegistry(2), ServerOptions{})
	spec := PlanSpec{Tile: TileSpec{Name: "cross:2:1"}}
	win := WindowSpec{Lo: []int{0, 0}, Hi: []int{11, 11}}
	const rounds = 40
	serve := func(ctype string, body []byte) *httptest.ResponseRecorder {
		req := httptest.NewRequest("POST", "/v1/plan:mutate", bytes.NewReader(body))
		req.Header.Set("Content-Type", ctype)
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		return rec
	}
	check := func(who string, m, alive int, changed []ChangeSpec) {
		if len(changed) != alive {
			t.Errorf("%s: %d changes for %d live sensors", who, len(changed), alive)
		}
		seen := make(map[string]bool, len(changed))
		for _, ch := range changed {
			key := fmt.Sprint(ch.P)
			if seen[key] {
				t.Errorf("%s: position %v twice", who, ch.P)
			}
			seen[key] = true
			if ch.Slot < 0 || ch.Slot >= m {
				t.Errorf("%s: slot %d at %v outside [0, %d)", who, ch.Slot, ch.P, m)
			}
		}
	}
	var wg sync.WaitGroup
	// Two mutators, each owning its own row inside the window and its
	// own positions outside it: leave and rejoin, and join outward.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				p := []int{i % 12, 3 + 5*g}
				evs := []EventSpec{{Op: "leave", P: p}, {Op: "join", P: p}}
				if i%4 == 0 {
					evs = append(evs, EventSpec{Op: "join", P: []int{14 + 3*g, i / 4}})
				}
				rec := serve("application/json", mustJSON(MutateRequest{Plan: spec, Window: win, Events: evs}))
				if rec.Code != http.StatusOK {
					t.Errorf("mutator %d round %d: status %d: %s", g, i, rec.Code, rec.Body)
					return
				}
			}
		}(g)
	}
	full := MutateRequest{Plan: spec, Window: win, Full: true}
	e := binwire.Get()
	if err := EncodeMutateBinary(e, full, ""); err != nil {
		t.Fatal(err)
	}
	binFull := bytes.Clone(e.Bytes())
	binwire.Put(e)
	for _, bin := range []bool{false, true} {
		wg.Add(1)
		go func(bin bool) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				var resp MutateResponse
				var err error
				if bin {
					rec := serve(BinaryContentType, binFull)
					resp, err = DecodeMutateStream(rec.Body.Bytes())
				} else {
					rec := serve("application/json", mustJSON(full))
					err = json.Unmarshal(rec.Body.Bytes(), &resp)
				}
				if err != nil {
					t.Errorf("full read (binary %v): %v", bin, err)
					return
				}
				check(fmt.Sprintf("full read %d (binary %v)", i, bin), resp.M, resp.Alive, resp.Changed)
			}
		}(bin)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds/2; i++ {
			feed, err := s.Subscribe(spec, win, nil)
			if err != nil {
				t.Errorf("subscribe: %v", err)
				return
			}
			if len(feed.Catch) != 1 || !feed.Catch[0].Full {
				t.Errorf("subscribe %d: catch-up %d deltas, want one full resync", i, len(feed.Catch))
			} else {
				d := feed.Catch[0]
				check(fmt.Sprintf("resync %d", i), d.M, d.Alive, d.Changed)
			}
			feed.Close()
		}
	}()
	wg.Wait()
}
