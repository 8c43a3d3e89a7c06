package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer. Start and End are offsets from
// the recorder's origin; Parent is the index of the enclosing span
// (-1 for the root); Trace is the manifest entry the span belongs to
// (core.CampaignKey), empty for campaign-level spans.
type span struct {
	Name   string        `json:"name"`
	Trace  string        `json:"trace,omitempty"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps the spans and counters of one traced walk in memory.
// A nil *recorder is the tracing-off switch: every method is a no-op,
// so the traced and untraced walks run the same code. The walk is
// single-threaded (workers: 1), so the open-span stack gives parents.
type recorder struct {
	t0       time.Time
	spans    []span
	open     []int
	trace    string
	counters map[string]float64
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), counters: map[string]float64{}}
}

// begin opens a span under the innermost open one and returns its index.
func (r *recorder) begin(name string) int {
	if r == nil {
		return -1
	}
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.spans = append(r.spans, span{Name: name, Trace: r.trace, Parent: parent, Start: time.Since(r.t0)})
	id := len(r.spans) - 1
	r.open = append(r.open, id)
	return id
}

// end closes span id, and with it any span opened inside it that an
// error path left open.
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := time.Since(r.t0)
	for n := len(r.open); n > 0; n-- {
		top := r.open[n-1]
		r.spans[top].End = now
		r.open = r.open[:n-1]
		if top == id {
			break
		}
	}
}

// endAs closes id under a name only known once the call returned (a
// cache acquisition is a hit or a miss).
func (r *recorder) endAs(id int, name string) {
	if r == nil {
		return
	}
	r.spans[id].Name = name
	r.end(id)
}

// count adds v to a named counter.
func (r *recorder) count(name string, v float64) {
	if r != nil {
		r.counters[name] += v
	}
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its child spans cover (overlapping children are
// counted once).
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := time.Duration(0), s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, edge), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}

// totals sums span durations and self times by span name.
func totals(spans []span) (dur, self map[string]time.Duration) {
	dur, self = map[string]time.Duration{}, map[string]time.Duration{}
	for i, st := range selfTimes(spans) {
		dur[spans[i].Name] += spans[i].dur()
		self[spans[i].Name] += st
	}
	return dur, self
}

// writeSpans writes one JSON span per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
