package obs

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"math/rand"
	"net/http"
	"slices"
	"sync"
	"time"
)

// Distributed span tracing, W3C trace-context style, stdlib only.
//
// A trace ID is minted (or echoed from the incoming traceparent
// header) at each tier's edge and carried in the request context
// across every hop. It is the stack's only correlation ID: it is
// always available for log lines, error bodies, and downstream headers
// even when the trace is not being recorded. Span recording is separate
// and tail-biased: a trace's spans are collected in flight when it
// was coin-sampled upstream or locally, or whenever a slow-capture
// threshold is armed, and the finished trace is kept in the tracer's
// ring buffer when it was coin-sampled or actually ran slow. The
// not-recording path is allocation-free: StartSpan returns the
// context unchanged and a nil *Span whose methods are no-ops (the
// micro-obs-span bench row gates this at 0 allocs/op).

// NewTraceID mints a 32-hex trace ID from 16 random bytes.
func NewTraceID() string {
	var buf [16]byte
	if _, err := crand.Read(buf[:]); err != nil {
		return "00000000000000000000000000000001"
	}
	return hex.EncodeToString(buf[:])
}

// NewSpanID mints a 16-hex span ID from 8 random bytes.
func NewSpanID() string {
	var buf [8]byte
	if _, err := crand.Read(buf[:]); err != nil {
		return "0000000000000001"
	}
	return hex.EncodeToString(buf[:])
}

// ParseTraceParent validates a W3C-style traceparent header value
// (`00-<32 hex trace id>-<16 hex span id>-<2 hex flags>`) and returns
// the trace ID and the sampled flag. ok is false for anything
// malformed — callers mint a fresh trace instead of propagating junk.
func ParseTraceParent(v string) (traceID string, sampled bool, ok bool) {
	traceID, _, sampled, ok = parseTraceParent(v)
	return traceID, sampled, ok
}

// parseTraceParent additionally returns the upstream span ID, which
// becomes the local root span's parent so cross-tier span trees nest.
func parseTraceParent(v string) (traceID, spanID string, sampled, ok bool) {
	if len(v) != 55 || v[0] != '0' || v[1] != '0' ||
		v[2] != '-' || v[35] != '-' || v[52] != '-' {
		return "", "", false, false
	}
	id := v[3:35]
	if !isHex(id) || allZero(id) {
		return "", "", false, false
	}
	span := v[36:52]
	if !isHex(span) || allZero(span) {
		return "", "", false, false
	}
	flags := v[53:55]
	if !isHex(flags) {
		return "", "", false, false
	}
	b, _ := hex.DecodeString(flags)
	return id, span, b[0]&0x01 == 0x01, true
}

// FormatTraceParent renders a traceparent header value.
func FormatTraceParent(traceID, spanID string, sampled bool) string {
	flags := "00"
	if sampled {
		flags = "01"
	}
	return "00-" + traceID + "-" + spanID + "-" + flags
}

func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func allZero(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] != '0' {
			return false
		}
	}
	return true
}

// SpanData is one finished span inside a kept trace. Start is an
// offset from the trace's start so span nesting reads directly off
// the JSON.
type SpanData struct {
	Name       string            `json:"name"`
	SpanID     string            `json:"span_id"`
	ParentID   string            `json:"parent_id,omitempty"`
	StartNs    int64             `json:"start_ns"`
	DurationNs int64             `json:"duration_ns"`
	Attrs      map[string]string `json:"attrs,omitempty"`
}

// TraceData is one kept trace: the root span's wall time plus every
// span recorded under the trace ID on this process.
type TraceData struct {
	TraceID    string     `json:"trace_id"`
	Start      time.Time  `json:"start"`
	DurationNs int64      `json:"duration_ns"`
	Slow       bool       `json:"slow,omitempty"`
	Spans      []SpanData `json:"spans"`
}

// Tracer decides which traces are recorded and keeps the finished
// ones in a bounded ring buffer (newest wins; the oldest entry is
// evicted once the buffer is full). Keep policy is tail-biased:
// every trace whose root span runs at least SlowThreshold is kept,
// and the rest are coin-sampled at SampleRate. A nil *Tracer is a
// valid "tracing disabled" tracer; IDs still propagate.
type Tracer struct {
	sampleRate float64
	slow       time.Duration

	mu   sync.Mutex
	rng  *rand.Rand
	ring []TraceData
	next int
	n    int
}

// DefaultTraceBuffer is the ring capacity when the caller passes 0.
const DefaultTraceBuffer = 256

// NewTracer builds a tracer with a randomly seeded sampling source.
// sampleRate is clamped to [0, 1]; slow <= 0 disables slow-capture;
// buffer <= 0 picks DefaultTraceBuffer.
func NewTracer(sampleRate float64, slow time.Duration, buffer int) *Tracer {
	var seed [8]byte
	crand.Read(seed[:]) // a zero seed on failure is still a valid coin
	return NewTracerSeeded(sampleRate, slow, buffer, int64(binary.LittleEndian.Uint64(seed[:])))
}

// NewTracerSeeded is NewTracer with a deterministic sampling seed, for
// tests that pin which traces the coin keeps.
func NewTracerSeeded(sampleRate float64, slow time.Duration, buffer int, seed int64) *Tracer {
	if sampleRate < 0 {
		sampleRate = 0
	} else if sampleRate > 1 {
		sampleRate = 1
	}
	if slow < 0 {
		slow = 0
	}
	if buffer <= 0 {
		buffer = DefaultTraceBuffer
	}
	return &Tracer{
		sampleRate: sampleRate,
		slow:       slow,
		rng:        rand.New(rand.NewSource(seed)),
		ring:       make([]TraceData, buffer),
	}
}

// sampleCoin flips the seeded sampling coin.
func (t *Tracer) sampleCoin() bool {
	if t.sampleRate <= 0 {
		return false
	}
	if t.sampleRate >= 1 {
		return true
	}
	t.mu.Lock()
	v := t.rng.Float64()
	t.mu.Unlock()
	return v < t.sampleRate
}

// keep inserts one finished trace, evicting the oldest when full.
func (t *Tracer) keep(td TraceData) {
	t.mu.Lock()
	t.ring[t.next] = td
	t.next = (t.next + 1) % len(t.ring)
	if t.n < len(t.ring) {
		t.n++
	}
	t.mu.Unlock()
}

// ServeHTTP serves GET /debug/traces: every kept trace, newest first,
// as {"traces": [...]}; with ?id=<trace-id>, only that trace (an empty
// list when the ring no longer holds it). A nil tracer serves an empty
// list.
func (t *Tracer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	traces := t.Snapshot()
	if id := r.URL.Query().Get("id"); id != "" {
		traces = slices.DeleteFunc(traces, func(td TraceData) bool { return td.TraceID != id })
	}
	if traces == nil {
		traces = []TraceData{}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(struct {
		Traces []TraceData `json:"traces"`
	}{traces})
}

// Snapshot copies the kept traces, newest first.
func (t *Tracer) Snapshot() []TraceData {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]TraceData, 0, t.n)
	for i := 1; i <= t.n; i++ {
		out = append(out, t.ring[(t.next-i+len(t.ring))%len(t.ring)])
	}
	return out
}

// activeTrace is one in-flight recorded trace: the span sink shared
// by every Span of the trace on this process.
type activeTrace struct {
	tracer  *Tracer
	id      string
	start   time.Time
	sampled bool // coin-kept regardless of duration

	mu    sync.Mutex
	spans []SpanData
}

// add appends one finished span to the trace and returns the spans so
// far.
func (at *activeTrace) add(name, id, parent string, start, end time.Time, attrs map[string]string) []SpanData {
	sd := SpanData{
		Name:       name,
		SpanID:     id,
		ParentID:   parent,
		StartNs:    start.Sub(at.start).Nanoseconds(),
		DurationNs: end.Sub(start).Nanoseconds(),
		Attrs:      attrs,
	}
	at.mu.Lock()
	defer at.mu.Unlock()
	at.spans = append(at.spans, sd)
	return at.spans
}

// Span is one timed operation inside a recorded trace. The nil *Span
// (returned whenever the trace is not being recorded) is valid and
// every method on it is a no-op.
type Span struct {
	t      *activeTrace
	id     string
	parent string
	name   string
	start  time.Time
	root   bool

	mu    sync.Mutex
	attrs map[string]string
	done  bool
}

// SetAttr annotates the span with one bounded key/value (dataset,
// backend, op — never raw client input).
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.attrs == nil {
		s.attrs = make(map[string]string, 4)
	}
	s.attrs[key] = value
	s.mu.Unlock()
}

// End finishes the span, appending it to its trace. Ending the root
// span finishes the trace: it is kept in the tracer's ring when it
// was coin-sampled or ran at least the slow threshold. End is
// idempotent and nil-safe.
func (s *Span) End() {
	if s == nil {
		return
	}
	end := time.Now()
	s.mu.Lock()
	if s.done {
		s.mu.Unlock()
		return
	}
	s.done = true
	attrs := s.attrs
	s.mu.Unlock()

	at := s.t
	spans := at.add(s.name, s.id, s.parent, s.start, end, attrs)
	if !s.root {
		return
	}
	dur := end.Sub(at.start)
	slow := at.tracer.slow > 0 && dur >= at.tracer.slow
	if at.sampled || slow {
		at.tracer.keep(TraceData{
			TraceID:    at.id,
			Start:      at.start,
			DurationNs: dur.Nanoseconds(),
			Slow:       slow,
			Spans:      spans,
		})
	}
}

// traceCtx rides the request context: the trace ID and current span
// ID always (for logs, error bodies, and outbound headers), the
// recording span only when this trace is being recorded.
type traceCtx struct {
	id      string
	spanID  string
	sampled bool
	span    *Span
}

type traceCtxKey struct{}

// StartTrace begins (or joins) a trace at a tier's edge: the incoming
// traceparent header value is echoed when valid, a fresh trace is
// minted otherwise, and the returned context always carries the trace
// ID. The root span is non-nil only when the trace is recorded —
// which happens when the upstream sampled flag is set, the local
// sampling coin lands, or slow-capture is armed (every trace must be
// measured to know which ones ran slow). tr may be nil: IDs still
// mint and propagate, nothing records.
func StartTrace(ctx context.Context, tr *Tracer, name, header string) (context.Context, *Span) {
	id, upSpan, upSampled, ok := parseTraceParent(header)
	if !ok {
		id = NewTraceID()
		upSpan = ""
		upSampled = false
	}
	tc := &traceCtx{id: id}
	var span *Span
	if tr != nil {
		coin := upSampled || tr.sampleCoin()
		if coin || tr.slow > 0 {
			now := time.Now()
			at := &activeTrace{tracer: tr, id: id, start: now, sampled: coin}
			span = &Span{t: at, id: NewSpanID(), parent: upSpan, name: name, start: now, root: true}
			tc.span = span
			tc.sampled = coin
		}
	}
	if span != nil {
		tc.spanID = span.id
	} else {
		tc.spanID = NewSpanID()
	}
	return context.WithValue(ctx, traceCtxKey{}, tc), span
}

// StartSpan starts a child of the context's current span, returning a
// derived context (pass it onward — see the ctxflow analyzer) and the
// span. When the trace is not being recorded it returns the context
// unchanged and a nil span, without allocating.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	tc, _ := ctx.Value(traceCtxKey{}).(*traceCtx)
	if tc == nil || tc.span == nil {
		return ctx, nil
	}
	s := &Span{t: tc.span.t, id: NewSpanID(), parent: tc.spanID, name: name, start: time.Now()}
	return context.WithValue(ctx, traceCtxKey{}, &traceCtx{
		id: tc.id, spanID: s.id, sampled: tc.sampled, span: s,
	}), s
}

// LeafSpan starts a child span WITHOUT deriving a context — for leaf
// operations that deliberately don't propagate further but must be
// named before they finish (the router's proxy attempt, whose span ID
// is forwarded before the call, say). A stage timed after the fact
// with a histogram beside it uses Stage instead. Nil when the trace is
// not being recorded.
func LeafSpan(ctx context.Context, name string) *Span {
	tc, _ := ctx.Value(traceCtxKey{}).(*traceCtx)
	if tc == nil || tc.span == nil {
		return nil
	}
	return &Span{t: tc.span.t, id: NewSpanID(), parent: tc.spanID, name: name, start: time.Now()}
}

// Stage records one finished stage of a request from a single pair of
// clock reads: end − start is observed in h and, when ctx's trace is
// recorded, also becomes a child span named name over the same
// interval, with kv (alternating keys and values) as its attributes.
// It returns end − start. A stage's histogram count therefore equals
// its span count in every recorded trace, and the not-recorded path
// allocates nothing.
func Stage(ctx context.Context, name string, h *Histogram, start, end time.Time, kv ...string) time.Duration {
	d := end.Sub(start)
	h.ObserveDuration(d)
	tc, _ := ctx.Value(traceCtxKey{}).(*traceCtx)
	if tc == nil || tc.span == nil {
		return d
	}
	var attrs map[string]string
	if len(kv) > 0 {
		attrs = make(map[string]string, len(kv)/2)
		for i := 0; i+1 < len(kv); i += 2 {
			attrs[kv[i]] = kv[i+1]
		}
	}
	tc.span.t.add(name, NewSpanID(), tc.spanID, start, end, attrs)
	return d
}

// TraceID returns the context's trace ID, or "" outside a trace.
func TraceID(ctx context.Context) string {
	tc, _ := ctx.Value(traceCtxKey{}).(*traceCtx)
	if tc == nil {
		return ""
	}
	return tc.id
}

// TraceParent renders the traceparent header value to forward
// downstream (current span as parent, sampled flag reflecting the
// local coin decision), or "" outside a trace.
func TraceParent(ctx context.Context) string {
	tc, _ := ctx.Value(traceCtxKey{}).(*traceCtx)
	if tc == nil {
		return ""
	}
	return FormatTraceParent(tc.id, tc.spanID, tc.sampled)
}

// TraceParentAt renders the traceparent to forward downstream from
// within s — the receiving tier's root span then nests under s rather
// than under the context's current span. A nil s (trace not recorded)
// falls back to TraceParent; use it with the LeafSpan wrapping the
// outbound call.
func TraceParentAt(ctx context.Context, s *Span) string {
	if s == nil {
		return TraceParent(ctx)
	}
	tc, _ := ctx.Value(traceCtxKey{}).(*traceCtx)
	if tc == nil {
		return ""
	}
	return FormatTraceParent(tc.id, s.id, tc.sampled)
}
