package main

import (
	"sort"
	"time"
)

// span is one call the benchmark made into a layer of the program.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // -1 for a root span
	Op     int     `json:"op"`     // the op (or setup) the call belongs to
	Name   string  `json:"name"`
	Start  float64 `json:"start_ms"` // since the run started
	End    float64 `json:"end_ms"`
}

// tracer keeps spans in memory until the run writes them out. All calls
// come from the one goroutine that drives the workload, so it needs no
// lock. A disabled tracer records nothing and begin returns -1.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
	open  []int // stack of open span IDs; its top is the next parent
	op    int
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// setOp starts a new op ID for the spans that follow.
func (t *tracer) setOp(op int) { t.op = op }

// begin opens a span nested in the innermost open one.
func (t *tracer) begin(name string) int {
	if !t.on {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: t.op, Name: name, Start: t.since()})
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	t.spans[id].End = t.since()
	t.open = t.open[:len(t.open)-1]
}

func (t *tracer) since() float64 { return float64(time.Since(t.t0).Nanoseconds()) / 1e6 }

// durations returns the length in ms of every span with the given name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

// layerTime sums, per span name, the time spans of that name covered and
// their self time: the span minus the part its child spans cover.
type layerTime struct {
	Name    string  `json:"name"`
	Calls   int     `json:"calls"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

func (t *tracer) layerTimes() []layerTime {
	child := make([]float64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			// Children of one span run one after another on the driving
			// goroutine, so their lengths add up to the covered part.
			child[s.Parent] += s.End - s.Start
		}
	}
	by := map[string]*layerTime{}
	var names []string
	for _, s := range t.spans {
		lt, ok := by[s.Name]
		if !ok {
			lt = &layerTime{Name: s.Name}
			by[s.Name] = lt
			names = append(names, s.Name)
		}
		lt.Calls++
		lt.TotalMS += s.End - s.Start
		lt.SelfMS += s.End - s.Start - child[s.ID]
	}
	sort.Strings(names)
	out := make([]layerTime, len(names))
	for i, n := range names {
		out[i] = *by[n]
	}
	return out
}
