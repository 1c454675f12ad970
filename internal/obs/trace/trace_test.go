package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestTraceparentRoundTrip(t *testing.T) {
	r := NewRecorder(1, 4)
	id := r.newID()
	span := r.NewSpanID()
	for _, sampled := range []bool{true, false} {
		h := FormatTraceparent(id, span, sampled)
		if len(h) != 55 {
			t.Fatalf("header length = %d, want 55: %q", len(h), h)
		}
		c, ok := ParseTraceparent(h)
		if !ok {
			t.Fatalf("ParseTraceparent(%q) failed", h)
		}
		if c.TraceID != id || c.Parent != span || c.Sampled != sampled {
			t.Fatalf("round trip mismatch: %+v", c)
		}
		if !c.Valid() {
			t.Fatalf("context %+v not valid", c)
		}
	}
}

func TestTraceparentRejects(t *testing.T) {
	bad := []string{
		"",
		"00-abc",
		"00-0123456789abcdef0123456789abcdef-0123456789abcdef-0",   // short flags
		"00-0123456789abcdef0123456789abcdef-0123456789abcdef-01x", // trailing junk on v00
		"00_0123456789abcdef0123456789abcdef-0123456789abcdef-01",  // bad separator
		"ff-0123456789abcdef0123456789abcdef-0123456789abcdef-01",  // forbidden version
		"zz-0123456789abcdef0123456789abcdef-0123456789abcdef-01",  // non-hex version
		"00-00000000000000000000000000000000-0123456789abcdef-01",  // zero trace id
		"00-0123456789abcdef0123456789abcdef-0000000000000000-01",  // zero span id
		"00-0123456789abcdeg0123456789abcdef-0123456789abcdef-01",  // non-hex digit
	}
	for _, h := range bad {
		if _, ok := ParseTraceparent(h); ok {
			t.Errorf("ParseTraceparent(%q) = ok, want reject", h)
		}
	}
	// Future versions may append fields after the flags.
	future := "cc-0123456789abcdef0123456789abcdef-0123456789abcdef-01-extrastuff"
	if c, ok := ParseTraceparent(future); !ok || !c.Sampled {
		t.Errorf("ParseTraceparent(%q) = %+v, %v; want sampled context", future, c, ok)
	}
}

func TestSamplingRate(t *testing.T) {
	r := NewRecorder(10, 8)
	hits := 0
	for i := 0; i < 1000; i++ {
		if tr := r.Start("req"); tr != nil {
			hits++
			r.Finish(tr)
		}
	}
	if hits != 100 {
		t.Fatalf("1-in-10 sampling over 1000 starts: got %d traces, want 100", hits)
	}
	r.SetSampleEvery(0)
	if tr := r.Start("req"); tr != nil {
		t.Fatal("Start returned a trace with sampling disabled")
	}
	if tr := r.StartForced("slow"); tr == nil {
		t.Fatal("StartForced returned nil with sampling disabled")
	} else {
		r.Finish(tr)
	}
}

func TestNilTraceIsNoOp(t *testing.T) {
	var tr *Trace
	tr.Span("x", 0, tr.Clock())
	tr.EpochSpan("x", 3, 0, 0)
	tr.NoteSpan("x", "n", 0, 0)
	tr.EpochNoteSpan("x", "n", 3, 0, 0)
	if !tr.ID().IsZero() || !tr.Root().IsZero() || tr.Clock() != 0 {
		t.Fatal("nil trace leaked non-zero identity")
	}
	r := NewRecorder(0, 4)
	r.Finish(nil)
	allocs := testing.AllocsPerRun(100, func() {
		tr := r.Start("req")
		tr.Span("decode", 0, tr.Clock())
		r.Finish(tr)
	})
	if allocs != 0 {
		t.Fatalf("unsampled path allocates %v per op, want 0", allocs)
	}
}

func TestRingRetainsNewestFirst(t *testing.T) {
	r := NewRecorder(1, 4)
	for i := 0; i < 10; i++ {
		tr := r.Start("req")
		tr.EpochSpan("apply", int64(i), 0, tr.Clock())
		r.Finish(tr)
	}
	views := r.Snapshot()
	if len(views) != 4 {
		t.Fatalf("ring of 4 holds %d traces", len(views))
	}
	for i, v := range views {
		wantEpoch := int64(9 - i)
		if len(v.Spans) != 1 || v.Spans[0].Epoch != wantEpoch {
			t.Fatalf("views[%d] = %+v, want single span with epoch %d", i, v, wantEpoch)
		}
		if v.DurationNs <= 0 {
			t.Fatalf("views[%d] duration = %d, want > 0", i, v.DurationNs)
		}
	}
	if got := r.Finished.Load(); got != 10 {
		t.Fatalf("Finished = %d, want 10", got)
	}
}

func TestLateSpansAfterFinish(t *testing.T) {
	r := NewRecorder(1, 4)
	tr := r.Start("epoch")
	r.Finish(tr)
	tr.NoteSpan("deliver", "sub-1", 0, tr.Clock())
	v, ok := r.Lookup(tr.ID().String())
	if !ok {
		t.Fatalf("Lookup(%s) missed", tr.ID())
	}
	if len(v.Spans) != 1 || v.Spans[0].Name != "deliver" || v.Spans[0].Note != "sub-1" {
		t.Fatalf("late span not visible: %+v", v.Spans)
	}
}

func TestSpanCapDrops(t *testing.T) {
	r := NewRecorder(1, 2)
	tr := r.Start("epoch")
	for i := 0; i < maxSpans+5; i++ {
		tr.Span("deliver", 0, 1)
	}
	r.Finish(tr)
	v := r.Snapshot()[0]
	if len(v.Spans) != maxSpans || v.DroppedSpans != 5 {
		t.Fatalf("got %d spans, %d dropped; want %d and 5", len(v.Spans), v.DroppedSpans, maxSpans)
	}
}

func TestJoinAndStartAt(t *testing.T) {
	r := NewRecorder(0, 4)
	c, ok := ParseTraceparent("00-0123456789abcdef0123456789abcdef-0123456789abcdef-01")
	if !ok {
		t.Fatal("parse failed")
	}
	tr := r.Join("mutate", c.TraceID, c.Parent)
	if tr.ID() != c.TraceID {
		t.Fatalf("joined trace ID = %s, want %s", tr.ID(), c.TraceID)
	}
	r.Finish(tr)
	v := r.Snapshot()[0]
	if !v.Remote || v.ParentSpanID != c.Parent.String() {
		t.Fatalf("joined view = %+v, want remote with parent %s", v, c.Parent)
	}

	start := time.Now().Add(-42 * time.Millisecond)
	syn := r.StartAt("slow", start)
	syn.Span("engine", 0, 42_000_000)
	r.Finish(syn)
	v2, ok := r.Lookup(syn.ID().String())
	if !ok || !v2.Forced {
		t.Fatalf("synthesized slow trace missing or not forced: %+v", v2)
	}
	if v2.DurationNs < 42_000_000 {
		t.Fatalf("synthesized duration %d < backdated 42ms", v2.DurationNs)
	}
}

func TestWriteJSON(t *testing.T) {
	r := NewRecorder(1, 4)
	tr := r.Start("mutate")
	tr.EpochSpan("wal-append", 7, 10, 20)
	r.Finish(tr)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var d Dump
	if err := json.Unmarshal(buf.Bytes(), &d); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if d.SampleEvery != 1 || d.Started != 1 || d.Finished != 1 || len(d.Traces) != 1 {
		t.Fatalf("dump = %+v", d)
	}
	if !strings.Contains(buf.String(), "wal-append") {
		t.Fatalf("span name missing from JSON:\n%s", buf.String())
	}
}

// FuzzParseTraceparent pins the header parser: it must never panic,
// and any header it accepts must re-format to an equivalent context.
func FuzzParseTraceparent(f *testing.F) {
	f.Add("00-0123456789abcdef0123456789abcdef-00f067aa0ba902b7-01")
	f.Add("00-0123456789abcdef0123456789abcdef-00f067aa0ba902b7-00")
	f.Add("00-00000000000000000000000000000000-0000000000000000-01")
	f.Add("ff-0123456789abcdef0123456789abcdef-00f067aa0ba902b7-01-extra")
	f.Add("")
	f.Add("garbage")
	f.Fuzz(func(t *testing.T, h string) {
		c, ok := ParseTraceparent(h)
		if !ok {
			return
		}
		if !c.Valid() {
			t.Fatalf("accepted invalid context from %q: %+v", h, c)
		}
		round, ok2 := ParseTraceparent(FormatTraceparent(c.TraceID, c.Parent, c.Sampled))
		if !ok2 || round != c {
			t.Fatalf("roundtrip %q: %+v vs %+v", h, c, round)
		}
	})
}
