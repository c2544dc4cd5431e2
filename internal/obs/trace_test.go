package obs

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

func TestSpansRecord(t *testing.T) {
	tr := NewTrace("release", 0)
	ctx := WithTrace(context.Background(), tr)
	if TraceFrom(ctx) != tr {
		t.Fatal("TraceFrom lost the trace")
	}
	_, sp := StartSpan(ctx, "prepare")
	sp.End()
	_, sp2 := StartSpan(ctx, "score")
	sp2.EndErr(errors.New("boom"))
	_, sp3 := StartSpan(ctx, "noise")
	sp3.EndErr(nil)
	sp3.End() // idempotent: a double end must not duplicate the record
	tr.Finish(time.Millisecond)

	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans: %+v", len(spans), spans)
	}
	if spans[0].Name != "prepare" || spans[0].Err != "" {
		t.Errorf("span 0: %+v", spans[0])
	}
	if spans[1].Name != "score" || spans[1].Err != "boom" {
		t.Errorf("span 1: %+v", spans[1])
	}
	if spans[2].Name != "noise" || spans[2].Err != "" {
		t.Errorf("span 2: %+v", spans[2])
	}
	if tr.Duration() != time.Millisecond {
		t.Errorf("duration %v", tr.Duration())
	}
}

func TestSpanNoopWithoutTrace(t *testing.T) {
	_, sp := StartSpan(context.Background(), "prepare")
	if sp != nil {
		t.Fatalf("expected nil span, got %+v", sp)
	}
	sp.End() // nil-safe
	sp.EndErr(errors.New("x"))
}

func TestTraceAttrs(t *testing.T) {
	tr := NewTrace("release", 0)
	tr.SetAttr("mechanism", "dp")
	tr.SetAttr("status", "200")
	tr.SetAttr("status", "403") // overwrite, order preserved
	attrs := tr.Attrs()
	if len(attrs) != 2 || attrs[0] != (Attr{"mechanism", "dp"}) || attrs[1] != (Attr{"status", "403"}) {
		t.Errorf("attrs: %+v", attrs)
	}
	var nilT *Trace
	nilT.SetAttr("k", "v") // nil-safe
	if nilT.Attrs() != nil {
		t.Error("nil trace attrs")
	}
}

func TestTraceSnapshot(t *testing.T) {
	tr := NewTrace("release", 0)
	ctx := WithTrace(context.Background(), tr)
	_, sp := StartSpan(ctx, "prepare")
	sp.End()
	tr.SetAttr("mechanism", "dp")
	tr.Finish(2 * time.Millisecond)
	snap := tr.Snapshot()
	if snap.ID == "" || snap.Name != "release" {
		t.Errorf("snapshot header: %+v", snap)
	}
	if snap.DurationMS != 2 {
		t.Errorf("duration_ms %v", snap.DurationMS)
	}
	if snap.Attrs["mechanism"] != "dp" {
		t.Errorf("attrs %v", snap.Attrs)
	}
	if len(snap.Spans) != 1 || snap.Spans[0].Name != "prepare" {
		t.Errorf("spans %+v", snap.Spans)
	}
}

func TestTraceRing(t *testing.T) {
	r := NewTraceRing(3)
	if got := r.Recent(); len(got) != 0 {
		t.Fatalf("empty ring: %v", got)
	}
	for i := 0; i < 5; i++ {
		tr := NewTrace(fmt.Sprintf("req-%d", i), 0)
		r.Add(tr)
	}
	if r.Len() != 3 {
		t.Errorf("len %d", r.Len())
	}
	got := r.Recent()
	if len(got) != 3 {
		t.Fatalf("recent: %d", len(got))
	}
	// Newest first, oldest two evicted.
	for i, want := range []string{"req-4", "req-3", "req-2"} {
		if got[i].Name != want {
			t.Errorf("recent[%d] = %s, want %s", i, got[i].Name, want)
		}
	}
	r.Add(nil) // nil-safe
	if r.Len() != 3 {
		t.Errorf("nil add changed len to %d", r.Len())
	}
}

// TestTraceRingFind: Find returns a held trace by ID and misses once
// the ring has evicted it.
func TestTraceRingFind(t *testing.T) {
	r := NewTraceRing(2)
	var traces []*Trace
	for i := 0; i < 3; i++ {
		tr := NewTrace(fmt.Sprintf("req-%d", i), 0)
		traces = append(traces, tr)
		r.Add(tr)
	}
	for i, want := range []bool{false, true, true} {
		snap, ok := r.Find(traces[i].ID)
		if ok != want || (ok && (snap.ID != traces[i].ID || snap.Name != traces[i].Name)) {
			t.Errorf("Find(%s) = (%+v, %v), want held %v", traces[i].ID, snap, ok, want)
		}
	}
	if _, ok := r.Find("nope"); ok {
		t.Error("Find of an unknown ID succeeded")
	}
}

func TestTraceIDsUnique(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		id := NewTrace("x", 0).ID
		if seen[id] {
			t.Fatalf("duplicate trace id %s", id)
		}
		seen[id] = true
	}
}
