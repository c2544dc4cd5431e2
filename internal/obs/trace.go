package obs

import (
	"context"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// traceIDs numbers traces process-wide; IDs are unique per process and
// deliberately deterministic (no clock or randomness) so tests can pin
// trace output.
var traceIDs atomic.Uint64

type traceCtxKey struct{}

// Trace is one request's span collection: a flat list of timed stages
// (read, decode, prepare, ceiling, wait, score, noise, finish, journal,
// encode) plus string attributes a handler attaches as it learns them
// (mechanism, substrate, session, status). A Trace is safe for
// concurrent span recording; handlers create one per request, thread it
// through the context, and hand the finished trace to a TraceRing.
type Trace struct {
	ID    string
	Name  string
	Start time.Time

	mu    sync.Mutex
	attrs []Attr        // guarded by mu
	spans []SpanRecord  // guarded by mu
	dur   time.Duration // guarded by mu
}

// Attr is one key-value annotation on a trace, in attachment order.
type Attr struct{ Key, Value string }

// NewTrace starts a named trace with room for the given number of
// spans, so a caller that knows its stage count allocates the span list
// once and a TraceRing holds no growth slack (more spans still fit).
func NewTrace(name string, spans int) *Trace {
	return &Trace{
		ID:    "t" + strconv.FormatUint(traceIDs.Add(1), 16),
		Name:  name,
		Start: time.Now(),
		spans: make([]SpanRecord, 0, spans),
	}
}

// WithTrace attaches t to the context for StartSpan to find.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, traceCtxKey{}, t)
}

// TraceFrom returns the context's trace, or nil.
func TraceFrom(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceCtxKey{}).(*Trace)
	return t
}

// SetAttr attaches (or overwrites) a key-value annotation. Nil-safe.
func (t *Trace) SetAttr(key, value string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.attrs {
		if t.attrs[i].Key == key {
			t.attrs[i].Value = value
			return
		}
	}
	t.attrs = append(t.attrs, Attr{Key: key, Value: value})
}

// Attrs returns a copy of the annotations in attachment order.
func (t *Trace) Attrs() []Attr {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Attr, len(t.attrs))
	copy(out, t.attrs)
	return out
}

// Finish records the trace's total duration.
func (t *Trace) Finish(d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.dur = d
	t.mu.Unlock()
}

// Duration returns the duration recorded by Finish.
func (t *Trace) Duration() time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dur
}

// Spans returns a copy of the recorded spans in end order.
func (t *Trace) Spans() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanRecord, len(t.spans))
	copy(out, t.spans)
	return out
}

func (t *Trace) addSpan(r SpanRecord) {
	t.mu.Lock()
	t.spans = append(t.spans, r)
	t.mu.Unlock()
}

// SpanRecord is one completed stage of a trace.
type SpanRecord struct {
	Name  string
	Start time.Time
	Dur   time.Duration
	// Err is the stage's error text ("" on success). Failed stages stay
	// visible in the trace but are excluded from the stage-latency
	// histograms, so a histogram's _count equals the stage's successes.
	Err string
}

// Span is an in-flight stage. A nil *Span (StartSpan on a context
// without a trace) is a valid no-op, so pipeline code records stages
// unconditionally and pays nothing when unobserved.
type Span struct {
	t     *Trace
	name  string
	start time.Time
	done  bool
}

// StartSpan begins a named stage on the context's trace. The returned
// context is the input context (spans are flat); the caller must End
// or EndErr the span.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	t := TraceFrom(ctx)
	if t == nil {
		return ctx, nil
	}
	return ctx, &Span{t: t, name: name, start: time.Now()}
}

// End records the span as successful. Safe on nil and idempotent.
func (s *Span) End() { s.finish("") }

// EndErr records the span, marking it failed when err != nil — the
// one-liner for the `sp.EndErr(err)` pattern after a fallible stage.
func (s *Span) EndErr(err error) {
	if err != nil {
		s.finish(err.Error())
		return
	}
	s.finish("")
}

func (s *Span) finish(errText string) {
	if s == nil || s.done {
		return
	}
	s.done = true
	s.t.addSpan(SpanRecord{
		Name:  s.name,
		Start: s.start,
		Dur:   time.Since(s.start),
		Err:   errText,
	})
}

// TraceSnapshot is the JSON shape of one completed trace, as served by
// GET /v1/traces/recent.
type TraceSnapshot struct {
	ID         string            `json:"id"`
	Name       string            `json:"name"`
	Start      time.Time         `json:"start"`
	DurationMS float64           `json:"duration_ms"`
	Attrs      map[string]string `json:"attrs,omitempty"`
	Spans      []SpanSnapshot    `json:"spans"`
}

// SpanSnapshot is one stage of a TraceSnapshot.
type SpanSnapshot struct {
	Name string `json:"name"`
	// OffsetMS is the stage's start relative to the trace start.
	OffsetMS   float64 `json:"offset_ms"`
	DurationMS float64 `json:"duration_ms"`
	Error      string  `json:"error,omitempty"`
}

// Snapshot renders the trace for the recent-traces endpoint.
func (t *Trace) Snapshot() TraceSnapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	snap := TraceSnapshot{
		ID:         t.ID,
		Name:       t.Name,
		Start:      t.Start,
		DurationMS: float64(t.dur) / float64(time.Millisecond),
		Spans:      make([]SpanSnapshot, len(t.spans)),
	}
	if len(t.attrs) > 0 {
		snap.Attrs = make(map[string]string, len(t.attrs))
		for _, a := range t.attrs {
			snap.Attrs[a.Key] = a.Value
		}
	}
	for i, sp := range t.spans {
		snap.Spans[i] = SpanSnapshot{
			Name:       sp.Name,
			OffsetMS:   float64(sp.Start.Sub(t.Start)) / float64(time.Millisecond),
			DurationMS: float64(sp.Dur) / float64(time.Millisecond),
			Error:      sp.Err,
		}
	}
	return snap
}

// TraceRing is a bounded ring of completed traces: the newest N
// requests' traces, served by GET /v1/traces/recent. Adding is O(1)
// and never blocks request handling on a scraper.
type TraceRing struct {
	mu  sync.Mutex
	buf []*Trace // guarded by mu
	pos int      // guarded by mu; next write index
	n   int      // guarded by mu; filled entries
}

// NewTraceRing returns a ring holding up to capacity traces.
func NewTraceRing(capacity int) *TraceRing {
	if capacity <= 0 {
		capacity = 1
	}
	return &TraceRing{buf: make([]*Trace, capacity)}
}

// Add inserts a completed trace, evicting the oldest when full.
func (r *TraceRing) Add(t *Trace) {
	if t == nil {
		return
	}
	r.mu.Lock()
	r.buf[r.pos] = t
	r.pos = (r.pos + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
	r.mu.Unlock()
}

// Len returns the number of traces held.
func (r *TraceRing) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// Find returns the snapshot of the held trace with the given ID; ok is
// false when no such trace was added or the ring has evicted it.
func (r *TraceRing) Find(id string) (snap TraceSnapshot, ok bool) {
	r.mu.Lock()
	var t *Trace
	for i := 1; i <= r.n; i++ {
		if c := r.buf[(r.pos-i+len(r.buf))%len(r.buf)]; c.ID == id {
			t = c
			break
		}
	}
	r.mu.Unlock()
	if t == nil {
		return TraceSnapshot{}, false
	}
	return t.Snapshot(), true
}

// Recent returns snapshots of the held traces, newest first.
func (r *TraceRing) Recent() []TraceSnapshot {
	r.mu.Lock()
	traces := make([]*Trace, 0, r.n)
	for i := 1; i <= r.n; i++ {
		traces = append(traces, r.buf[(r.pos-i+len(r.buf))%len(r.buf)])
	}
	r.mu.Unlock()
	out := make([]TraceSnapshot, len(traces))
	for i, t := range traces {
		out[i] = t.Snapshot()
	}
	return out
}
