package obs

import (
	"sync"
	"time"
)

// Span is one completed timed operation reported to a Tracer: a script or
// one of its statements. Spans are emitted after the fact (start plus
// duration), so a Tracer never has to pair events.
type Span struct {
	// Name identifies the operation ("hql.exec", "hql.select").
	Name string
	// Start is when the operation began.
	Start time.Time
	// Duration is how long it ran.
	Duration time.Duration
	// Attrs carry operation details (statement kind, batch size).
	Attrs []Label
	// Err is the operation's failure, nil on success.
	Err error
}

// Tracer receives completed spans. Implementations must be safe for
// concurrent use; emitting a span must be cheap (the hooks sit on request
// paths). A nil Tracer everywhere means tracing is off and costs nothing.
type Tracer interface {
	Span(Span)
}

// TracerFunc adapts a function to the Tracer interface.
type TracerFunc func(Span)

// Span implements Tracer.
func (f TracerFunc) Span(s Span) { f(s) }

// SpanCollector is a Tracer that records every span, for tests and
// interactive inspection.
type SpanCollector struct {
	mu    sync.Mutex
	spans []Span
}

// Span implements Tracer.
func (c *SpanCollector) Span(s Span) {
	c.mu.Lock()
	c.spans = append(c.spans, s)
	c.mu.Unlock()
}

// Spans returns a copy of the collected spans.
func (c *SpanCollector) Spans() []Span {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Span(nil), c.spans...)
}

// Reset discards the collected spans.
func (c *SpanCollector) Reset() {
	c.mu.Lock()
	c.spans = nil
	c.mu.Unlock()
}
