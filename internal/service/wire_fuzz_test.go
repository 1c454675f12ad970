package service

// Native fuzz targets for the wire-level decoding funnel (wire.go): the
// decoders face unauthenticated bytes, so whatever the input they must
// return an error — never panic — and anything they accept must respect
// the documented limits. CI runs each target for a 10s smoke
// (-fuzztime); longer local runs grow the corpus under testdata/fuzz.

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
)

// FuzzDecodeBatchRequest checks that batch decoding never panics and
// that every accepted request satisfies the structural contract:
// exactly one of points/window, batch within MaxBatch and of one point
// dimension, window expansion within MaxWindow.
func FuzzDecodeBatchRequest(f *testing.F) {
	seeds := []string{
		`{"plan":{"tile":{"name":"cross:2:1"}},"points":[[3,4],[0,0]]}`,
		`{"plan":{"tile":{"name":"cross:2:1"}},"window":{"lo":[-4,-4],"hi":[4,4]}}`,
		`{"plan":{"tile":{"points":[[0,0],[1,0]]}},"points":[[1]],"t":12345}`,
		`{"points":[[0,0]],"window":{"lo":[0],"hi":[0]}}`, // both set
		`{"plan":{}}`,                                            // neither set
		`{"window":{"lo":[4],"hi":[-4]}}`,                        // inverted corners
		`{"window":{"lo":[0,0],"hi":[9]}}`,                       // mismatched dims
		`{"window":{"lo":[-1000000000],"hi":[1000000000]}}`,      // huge expansion
		`{"window":{"lo":[-9e18,-9e18],"hi":[9e18,9e18]}}`,       // overflow sizes
		`{"points":[` + strings.Repeat(`[0,0],`, 64) + `[0,0]]}`, // 65 points
		`{"points":[null,[]]}`,                                   // degenerate points
		`{"plan":{"tile":{"name":"cross:2:1"}},"points":[[3,4]],"t":-1}`,
		`not json`, `{"window":`, `[]`, `42`, `{}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s), 8, 64)
	}
	f.Fuzz(func(t *testing.T, data []byte, maxBatch, maxWindow int) {
		lim := Limits{MaxBatch: maxBatch, MaxWindow: maxWindow}.withDefaults()
		req, win, err := DecodeBatchRequest(data, Limits{MaxBatch: maxBatch, MaxWindow: maxWindow})
		if err != nil {
			return
		}
		hasPoints := len(req.Points) > 0
		hasWindow := req.Window != nil
		if hasPoints == hasWindow {
			t.Fatalf("accepted request with points=%v window=%v", hasPoints, hasWindow)
		}
		if hasPoints {
			if win != nil {
				t.Fatal("explicit-point batch returned a window")
			}
			if len(req.Points) > lim.MaxBatch {
				t.Fatalf("accepted batch of %d over limit %d", len(req.Points), lim.MaxBatch)
			}
			dim := len(req.Points[0])
			if dim < 1 || dim > maxTileDim {
				t.Fatalf("accepted point dimension %d", dim)
			}
			for i, p := range req.Points {
				if len(p) != dim {
					t.Fatalf("point %d has dimension %d ≠ %d", i, len(p), dim)
				}
			}
		} else {
			if win == nil {
				t.Fatal("window batch returned no validated window")
			}
			size, serr := win.SizeChecked()
			if serr != nil || size > lim.MaxWindow {
				t.Fatalf("accepted window of %d points (err %v) over limit %d", size, serr, lim.MaxWindow)
			}
		}
	})
}

// FuzzDecodeTileSpec checks that tile decoding never panics, that
// accepted tiles respect the size and dimension bounds, and that the
// limit boundaries themselves error rather than slip through.
func FuzzDecodeTileSpec(f *testing.F) {
	seeds := []string{
		`{"name":"cross:2:1"}`,
		`{"name":"chebyshev:3:2"}`,
		`{"name":"rect:4:2"}`,
		`{"name":"tetromino:S"}`,
		`{"name":"pentomino:F"}`,
		`{"name":"ltromino"}`,
		`{"name":"directional"}`,
		`{"name":"ball:2.5"}`,                   // metric: must error here, resolves via PlanSpec
		`{"name":"cross:2:1","points":[[0,0]]}`, // both set
		`{"name":"cross:16:512"}`,               // boxWithin boundary
		`{"name":"rect:513:1"}`,                 // point-count boundary
		`{"name":"cross:-1:-1"}`, `{"name":"cross:1e9:1"}`,
		`{"points":[[0,0],[1,0],[0,1]]}`,
		`{"points":[[0]]}`,
		`{"points":[[]]}`,        // zero-dimensional
		`{"points":[[0,0],[1]]}`, // mixed dims
		`{"points":[[1,1]]}`,     // missing origin
		`{"points":[` + bigPointList(513) + `]}`,
		`{"points":[[` + strings.Repeat("0,", 40) + `0]]}`, // 41-dim point
		`{}`, `not json`, `{"name":`, `[]`, `{"name":""}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tile, err := DecodeTileSpec(data)
		if err != nil {
			if tile != nil {
				t.Fatal("error with non-nil tile")
			}
			return
		}
		if tile == nil {
			t.Fatal("nil tile without error")
		}
		if tile.Size() < 1 || tile.Size() > maxTilePoints {
			t.Fatalf("accepted tile with %d points, limit %d", tile.Size(), maxTilePoints)
		}
		if tile.Dim() < 1 || tile.Dim() > maxTileDim {
			t.Fatalf("accepted tile with dimension %d, limit %d", tile.Dim(), maxTileDim)
		}
	})
}

// bigPointList renders n copies of the origin for oversized-tile seeds.
func bigPointList(n int) string {
	parts := make([]string, n)
	for i := range parts {
		parts[i] = "[0,0]"
	}
	return strings.Join(parts, ",")
}

// TestDecodeBatchRequestLimitBoundaries pins the exact boundary
// semantics the fuzz property relies on: at the limit passes, one past
// the limit errors with ErrLimit.
func TestDecodeBatchRequestLimitBoundaries(t *testing.T) {
	mkPoints := func(n int) []byte {
		pts := make([][]int, n)
		for i := range pts {
			pts[i] = []int{i, i}
		}
		body, err := json.Marshal(map[string]any{"points": pts})
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	lim := Limits{MaxBatch: 4, MaxWindow: 9}
	if _, _, err := DecodeBatchRequest(mkPoints(4), lim); err != nil {
		t.Fatalf("batch at limit rejected: %v", err)
	}
	if _, _, err := DecodeBatchRequest(mkPoints(5), lim); !errorsIsLimit(err) {
		t.Fatalf("batch over limit: got %v, want ErrLimit", err)
	}
	win := []byte(`{"window":{"lo":[0,0],"hi":[2,2]}}`) // 9 points
	if _, w, err := DecodeBatchRequest(win, lim); err != nil || w == nil {
		t.Fatalf("window at limit rejected: %v", err)
	}
	win = []byte(`{"window":{"lo":[0,0],"hi":[2,3]}}`) // 12 points
	if _, _, err := DecodeBatchRequest(win, lim); !errorsIsLimit(err) {
		t.Fatalf("window over limit: got %v, want ErrLimit", err)
	}
	if _, _, err := DecodeBatchRequest([]byte(fmt.Sprintf(`{"points":%s}`, "[]")), lim); err == nil {
		t.Fatal("empty request accepted")
	}
}

func errorsIsLimit(err error) bool { return errors.Is(err, ErrLimit) }

// FuzzDecodeMutateRequest checks the mutate funnel: never panic, and
// every accepted request has a bounded window, a bounded event list, and
// only well-formed in-margin events.
func FuzzDecodeMutateRequest(f *testing.F) {
	seeds := []string{
		`{"plan":{"tile":{"name":"cross:2:1"}},"window":{"lo":[0,0],"hi":[4,4]},"events":[{"op":"leave","p":[1,1]}]}`,
		`{"window":{"lo":[0,0],"hi":[4,4]},"events":[{"op":"move","p":[0,0],"to":[5,5]}],"epoch":3}`,
		`{"window":{"lo":[0,0],"hi":[4,4]},"full":true}`,
		`{"window":{"lo":[0,0],"hi":[4,4]},"events":[{"op":"join","p":[100000,0]}]}`,
		`{"window":{"lo":[4],"hi":[-4]},"events":[{"op":"leave","p":[0]}]}`,
		`{"events":[{"op":"leave","p":[0,0]}]}`,
		`not json`, `{"window":`, `{}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s), 8, 64)
	}
	f.Fuzz(func(t *testing.T, data []byte, maxBatch, maxWindow int) {
		lim := Limits{MaxBatch: maxBatch, MaxWindow: maxWindow}.withDefaults()
		req, win, events, err := DecodeMutateRequest(data, Limits{MaxBatch: maxBatch, MaxWindow: maxWindow})
		if err != nil {
			return
		}
		if size, serr := win.SizeChecked(); serr != nil || size > lim.MaxWindow {
			t.Fatalf("accepted window %s over limit %d", win, lim.MaxWindow)
		}
		if len(events) > lim.MaxBatch {
			t.Fatalf("accepted %d events over limit %d", len(events), lim.MaxBatch)
		}
		if len(events) == 0 && !req.Full {
			t.Fatal("accepted an empty non-full request")
		}
		for i, ev := range events {
			if ev.P.Dim() != win.Dim() {
				t.Fatalf("event %d dimension %d ≠ window %d", i, ev.P.Dim(), win.Dim())
			}
			for a := range ev.P {
				if ev.P[a] < win.Lo[a]-MutateMargin || ev.P[a] > win.Hi[a]+MutateMargin {
					t.Fatalf("event %d outside margin: %v in %s", i, ev.P, win)
				}
			}
		}
	})
}
