package main

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"hpctradeoff/internal/core"
	"hpctradeoff/internal/scheme"
	"hpctradeoff/internal/simtime"
	"hpctradeoff/internal/spec"
	wgen "hpctradeoff/internal/workload"
)

// These tests are deterministic: none asserts a duration.

func TestSelfTimes(t *testing.T) {
	// root [0,100] with children a [10,40] and b [30,60] that overlap on
	// [30,40], a grandchild [15,25] under a, and a second root after it.
	spans := []span{
		{Name: "root", Parent: -1, Start: 0, End: 100},
		{Name: "layer", Parent: 0, Start: 10, End: 40},
		{Name: "layer", Parent: 0, Start: 30, End: 60},
		{Name: "leaf", Parent: 1, Start: 15, End: 25},
		{Name: "after", Parent: -1, Start: 100, End: 130},
	}
	want := []time.Duration{50, 20, 30, 10, 30}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
	dur, self := totals(spans)
	if dur["layer"] != 60 || self["layer"] != 50 || self["root"] != 50 {
		t.Fatalf("totals: dur %v self %v", dur, self)
	}
}

func TestRecorderNesting(t *testing.T) {
	var off *recorder
	off.end(off.begin("ignored")) // tracing off must be a no-op
	off.count("ignored", 1)

	r := newRecorder()
	root := r.begin("root")
	r.trace = "k"
	acq := r.begin("acquire")
	r.begin("left-open")
	r.endAs(acq, "acquire_miss") // closes the span an error path left open
	r.trace = ""
	r.end(root)
	if len(r.open) != 0 {
		t.Fatalf("spans left open: %v", r.open)
	}
	var got []string
	for _, s := range r.spans {
		got = append(got, s.Name+"<"+r.spans[max(s.Parent, 0)].Name+" "+s.Trace)
	}
	want := []string{"root<root ", "acquire_miss<root k", "left-open<acquire_miss k"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("spans = %q, want %q", got, want)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles(1..10) = %v, %v", q1, q3)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	if q1, q3 := quartiles([]float64{3, 1, 2}); q1 != 1 || q3 != 3 {
		t.Fatalf("quartiles(1..3) = %v, %v", q1, q3)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median = %v", m)
	}
}

// compile parses and compiles an emitted spec the way the program does.
func compile(t *testing.T, doc string) *spec.Compiled {
	t.Helper()
	s, err := spec.Parse([]byte(doc))
	if err != nil {
		t.Fatalf("%v\n%s", err, doc)
	}
	c, err := spec.Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestEmittedSpecsCompile(t *testing.T) {
	wantTraces := map[string]int{"p2p_cold": 10, "p2p_warm": 10, "collective_cold": 12, "triage_small": 72}
	for _, full := range workloads {
		if full.traces() != wantTraces[full.name] {
			t.Errorf("%s: traces() = %d, want %d", full.name, full.traces(), wantTraces[full.name])
		}
		for _, w := range []workload{full, full.smoke()} {
			a, b := compile(t, w.spec(1)), compile(t, w.spec(2))
			for _, c := range []*spec.Compiled{a, b} {
				if len(c.Manifest) != w.traces() {
					t.Errorf("%s: compiled to %d traces, want %d", w.name, len(c.Manifest), w.traces())
				}
				if c.Workers != 1 || !reflect.DeepEqual(c.Schemes, schemeNames) {
					t.Errorf("%s: workers %d schemes %v", w.name, c.Workers, c.Schemes)
				}
				if (c.Triage != nil) != w.triage {
					t.Errorf("%s: triage policy %v", w.name, c.Triage)
				}
			}
			if a.Hash() == b.Hash() || reflect.DeepEqual(a.Manifest, b.Manifest) {
				t.Errorf("%s: seeds 1 and 2 emit the same manifest", w.name)
			}
			if again := compile(t, w.spec(1)); again.Hash() != a.Hash() {
				t.Errorf("%s: the same seed emitted two different manifests", w.name)
			}
		}
	}
	cold, warm := workloads[0], workloads[1]
	if cold.name != "p2p_cold" || warm.name != "p2p_warm" || compile(t, cold.spec(5)).Hash() != compile(t, warm.spec(5)).Hash() {
		t.Error("p2p_cold and p2p_warm must run the same manifest")
	}
}

// fakeResult is one hand-built trace result whose flow outcome is a
// capability gap.
func fakeResult(key string) *core.TraceResult {
	return &core.TraceResult{
		Params:   wgen.Params{App: key, Class: "S", Ranks: 16, Machine: "edison"},
		Measured: 1000,
		Schemes: map[string]scheme.Outcome{
			scheme.MFACT:      {OK: true, Total: 1100},
			scheme.Packet:     {OK: true, Total: 1010},
			scheme.Flow:       {ErrKind: string(core.KindUnsupported)},
			scheme.PacketFlow: {OK: true, Total: 1000},
		},
	}
}

func TestCorrectnessGate(t *testing.T) {
	flowOK := func(r *core.TraceResult, total simtime.Time) *core.TraceResult {
		r.Schemes[scheme.Flow] = scheme.Outcome{OK: true, Total: 990 + total}
		return r
	}
	a, err := check([]*core.TraceResult{flowOK(fakeResult("CG"), 0), fakeResult("FT")}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if a.attempted != 2+7 || a.failed != 0 || a.unsupported[scheme.Flow] != 1 {
		t.Errorf("attempted %d failed %d unsupported %v", a.attempted, a.failed, a.unsupported)
	}
	if got := a.errPct[scheme.MFACT]; got < 9.999 || got > 10.001 {
		t.Errorf("mfact error = %v %%, want 10", got)
	}
	// Order must not matter; content must.
	same, _ := check([]*core.TraceResult{fakeResult("FT"), flowOK(fakeResult("CG"), 0)}, 2)
	if err := a.sameAs(same, "reordered"); err != nil || a.digest() != same.digest() {
		t.Errorf("reordered results differ: %v", err)
	}
	other, _ := check([]*core.TraceResult{flowOK(fakeResult("CG"), 1), fakeResult("FT")}, 2)
	err = a.sameAs(other, "changed")
	if err == nil || !strings.Contains(err.Error(), "CG.S.x16.edison") || a.digest() == other.digest() {
		t.Errorf("a changed prediction must fail the gate and name the trace, got %v", err)
	}
	if _, err := check([]*core.TraceResult{fakeResult("FT")}, 2); err == nil {
		t.Error("a missing trace must fail the gate")
	}
	failed := fakeResult("FT")
	failed.Schemes[scheme.Packet] = scheme.Outcome{ErrKind: string(core.KindDeadlock)}
	if c, _ := check([]*core.TraceResult{flowOK(fakeResult("CG"), 0), failed}, 2); c.failed != 1 {
		t.Errorf("a deadlocked scheme must count as failed, got %d", c.failed)
	}
}

func TestVerdict(t *testing.T) {
	wall := endToEnd[0]
	s := func(xs ...float64) series { return newSeries("s", xs) }
	for _, c := range []struct {
		name         string
		d            metricDef
		a, b         series
		spinA, spinB float64
		want         string
	}{
		{"same", wall, s(10, 10.1, 10.2, 10.3), s(10.1, 10.2, 10.3, 10.2), 100, 100, verdictOK},
		{"faster", wall, s(10, 10.1, 10.2, 10.3), s(8, 8.1, 8.2, 8.3), 100, 100, verdictOK},
		{"slower", wall, s(10, 10.1, 10.2, 10.3), s(13, 13.1, 13.2, 13.3), 100, 105, verdictRegressed},
		{"same on a slower host", wall, s(10, 10.1, 10.2, 10.3), s(10.1, 10.2, 10.3, 10.2), 100, 130, verdictOK},
		{"slower on a slower host", wall, s(10, 10.1, 10.2, 10.3), s(13, 13.1, 13.2, 13.3), 100, 130, verdictUnresolved},
		{"noisy and interleaved", wall, s(6, 10, 14, 18), s(7, 11, 15, 19), 100, 100, verdictUnresolved},
		{"noisy but apart", wall, s(6, 10, 14, 18), s(30, 32, 34, 36), 100, 100, verdictRegressed},
		{"accuracy within 0.05 points", endToEnd[4], s(1.50), s(1.54), 100, 130, verdictOK},
		{"accuracy off by 0.1 points", endToEnd[4], s(1.50), s(1.60), 100, 130, verdictRegressed},
		{"set-up under a second", endToEnd[3], s(0.2, 0.2, 0.2), s(0.9, 0.9, 0.9), 100, 100, verdictOK},
		{"any new failure", failedShare, s(0), s(0.01), 100, 100, verdictRegressed},
	} {
		if got := verdict(c.d, c.a, c.b, c.spinA, c.spinB); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

// TestBenchmarkJSON holds the driver's description of the benchmark to
// the harness's own tables.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var b struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, want %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v, want %s: %s", i, b.Workloads[i], w.name, w.why)
		}
	}
	same := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, want %d", kind, len(got), len(want))
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s %d: %s [%s], want %s [%s]", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	for i, m := range b.EndToEnd {
		if m.Better != "lower" || m.Bound != endToEnd[i].bound || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: better %q bound %v, want lower and %v", m.Name, m.Better, m.Bound, endToEnd[i].bound)
		}
	}
	if !reflect.DeepEqual(b.Paths, []string{"benchmark"}) || b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("paths %v run_seconds %d", b.Paths, b.RunSeconds)
	}
}

// TestSmoke runs every workload, shrunk to two tiny traces, through the
// real end-to-end path (built binaries, child processes) and the traced
// layered walk, and holds them to the correctness gate.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and executes the program")
	}
	h, err := newHarness("..", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer h.close()
	digests := map[string]string{}
	for _, full := range workloads {
		w := full.smoke()
		e2e, err := h.measure(w, 3, 0)
		if err != nil {
			t.Fatal(err)
		}
		if n := len(e2e.samples["campaign_wall_s"]); n != minReps || len(e2e.samples["setup_s"]) != setupReps {
			t.Errorf("%s: %d campaigns, %d set-ups", w.name, n, len(e2e.samples["setup_s"]))
		}
		if e2e.failed != 0 || e2e.attempted != minReps*e2e.check.attempted {
			t.Errorf("%s: failed %d of %d", w.name, e2e.failed, e2e.attempted)
		}
		tr, err := h.measureTraced(w, 3, 0, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if e2e.check.digest() != tr.check.digest() {
			t.Errorf("%s: measured run %s, traced run %s", w.name, e2e.check.digest(), tr.check.digest())
		}
		digests[w.name] = e2e.check.digest()

		names := map[string]bool{}
		for _, d := range perLayer {
			names[d.name] = true
			if _, ok := tr.metrics[d.name]; !ok {
				t.Errorf("%s: traced run lacks %s", w.name, d.name)
			}
		}
		for name := range tr.metrics {
			if !names[name] {
				t.Errorf("%s: traced run reports unlisted metric %s", w.name, name)
			}
		}
		hits, misses := tr.metrics["tracecache.hits"], tr.metrics["tracecache.misses"]
		if w.warm && (hits != float64(w.traces()) || misses != 0) || !w.warm && (hits != 0 || misses != float64(w.traces())) {
			t.Errorf("%s: %v hits, %v misses", w.name, hits, misses)
		}
		if w.warm && tr.metrics["workload.stamp_ms"]+tr.metrics["tracecache.publish_ms"] != 0 {
			t.Errorf("%s: a warm run generated or published", w.name)
		}
		if got := tr.metrics["scheme.packet.events"]; got <= 0 {
			t.Errorf("%s: packet scheme ran %v events", w.name, got)
		}
	}
	if digests["p2p_cold"] != digests["p2p_warm"] {
		t.Errorf("p2p_cold %s, p2p_warm %s", digests["p2p_cold"], digests["p2p_warm"])
	}
}
