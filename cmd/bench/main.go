// Command bench runs the repository's fixed performance scenarios —
// the DES event core, the three network models, full trace replays,
// the trace codec and cache, and reduced campaigns — and writes a
// JSON snapshot (BENCH_<date>.json) so performance regressions become
// visible PR-to-PR. Every scenario reports per-event costs (ns/event,
// allocs/event) because the paper's cost model is "events executed":
// the event loop is the hottest path of the whole study.
//
// Usage:
//
//	bench [-out FILE] [-baseline FILE] [-short]
//
// -out "" prints the snapshot to stdout only. -baseline loads an
// earlier snapshot and prints per-scenario deltas (and embeds the
// baseline entries in the new snapshot for provenance). -short runs
// reduced workloads for CI gates.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"

	"hpctradeoff/internal/core"
	"hpctradeoff/internal/des"
	"hpctradeoff/internal/machine"
	"hpctradeoff/internal/mpisim"
	"hpctradeoff/internal/simnet"
	"hpctradeoff/internal/simtime"
	"hpctradeoff/internal/spec"
	"hpctradeoff/internal/trace"
	"hpctradeoff/internal/tracecache"
	"hpctradeoff/internal/triage"
	"hpctradeoff/internal/workload"
)

// Entry is one scenario's measured costs.
type Entry struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	// EventsPerOp is the number of DES events one op executes; it is
	// deterministic for every scenario, which is what makes the
	// per-event normalization below meaningful across engine rewrites.
	EventsPerOp    float64 `json:"events_per_op"`
	NsPerEvent     float64 `json:"ns_per_event"`
	AllocsPerEvent float64 `json:"allocs_per_event"`
	BytesPerEvent  float64 `json:"bytes_per_event"`
	// PeakHeapBytes is a sampled peak-residency estimate (max HeapInuse
	// observed while the scenario ran); only the campaign scenarios
	// report it, because they hold whole traces resident.
	PeakHeapBytes float64 `json:"peak_heap_bytes,omitempty"`
	// CacheHits/CacheMisses are the trace-cache counters of one op;
	// only the cache scenarios report them. They are the snapshot's
	// evidence that the warm scenarios really served from the cache
	// (misses 0) and the cold ones really paid materialization.
	CacheHits   float64 `json:"cache_hits,omitempty"`
	CacheMisses float64 `json:"cache_misses,omitempty"`
}

// Snapshot is the on-disk benchmark record.
type Snapshot struct {
	Date      string `json:"date"`
	GoVersion string `json:"go_version"`
	NumCPU    int    `json:"num_cpu"`
	// GoMaxProcs is the scheduler's actual parallelism at run time —
	// num_cpu alone misreads snapshots taken under GOMAXPROCS caps
	// (containers, taskset) as same-machine comparisons.
	GoMaxProcs   int     `json:"go_max_procs"`
	Short        bool    `json:"short,omitempty"`
	Entries      []Entry `json:"entries"`
	BaselineFile string  `json:"baseline_file,omitempty"`
	// Baseline embeds the compared-against entries so the committed
	// snapshot is self-contained evidence of the delta.
	Baseline []Entry `json:"baseline,omitempty"`
}

// scenario is one named benchmark: body runs the workload once and
// returns the number of DES events it executed.
type scenario struct {
	name string
	body func(short bool) uint64
}

func scenarios() []scenario {
	return []scenario{
		{"des/chain", benchChain},
		{"des/fanout", benchFanout},
		{"des/hold-256", benchHold},
		{"simnet/packet-small", mkTraffic(simnet.Packet, 512, 1<<10)},
		{"simnet/packet-large", mkTraffic(simnet.Packet, 64, 1<<20)},
		{"simnet/packetflow-large", mkTraffic(simnet.PacketFlow, 64, 1<<20)},
		{"simnet/flow-small", mkTraffic(simnet.Flow, 512, 1<<10)},
		{"simnet/flow-alltoall-64", benchFlowAlltoall},
		{"mpisim/replay-packet", mkReplay(simnet.Packet)},
		{"mpisim/lower-stencil", benchLowerStencil},
		{"mpisim/replay-packetflow", mkReplay(simnet.PacketFlow)},
		{"trace/codec-open-v3", benchCodecOpenV3},
		{"trace/materialize-full", benchMaterializeFull},
		{"campaign/source-native", benchCampaignSource},
		{"tracecache/acquire-cold", benchAcquireCold},
		{"tracecache/acquire-warm", benchAcquireWarm},
		{"tracecache/open-program", benchOpenProgram},
		{"campaign/cold-cache", benchCampaignColdCache},
		{"campaign/warm-cache", benchCampaignWarmCache},
		{"campaign/triage-two-pass", benchCampaignTriageTwoPass},
	}
}

// benchChain drives a self-perpetuating event chain: the pure
// schedule-dispatch cost of the sequential engine with a near-empty
// queue.
func benchChain(short bool) uint64 {
	k := 200_000
	if short {
		k = 20_000
	}
	var e des.Engine
	n := 0
	var step func()
	step = func() {
		n++
		if n < k {
			e.After(simtime.Nanosecond, step)
		}
	}
	e.After(0, step)
	e.Run()
	return e.Steps()
}

// benchFanout preloads a wide queue (many resident events) and drains
// it: the heap's sift costs under depth.
func benchFanout(short bool) uint64 {
	k := 200_000
	if short {
		k = 20_000
	}
	var e des.Engine
	f := func() {}
	r := uint64(1)
	for i := 0; i < k; i++ {
		r = r*6364136223846793005 + 1442695040888963407 // deterministic LCG
		e.At(simtime.Time(r%100_000), f)
	}
	e.Run()
	return e.Steps()
}

// benchHold is the hold model at the depth campaign replays actually
// run at: 256 events stay pending (replays of the benchmark's p2p
// manifest average 18–1,581, typically 70–400), and every executed
// event schedules its successor a pseudo-random delay ahead. It is the
// micro row that explains the campaign rows: chain has no queue to
// speak of and fanout's 200 k-deep drain is cache-miss-bound, so
// neither prices the heap where the simulators use it.
func benchHold(short bool) uint64 {
	k := 400_000
	if short {
		k = 40_000
	}
	var e des.Engine
	n := 0
	r := uint64(1)
	var step func()
	step = func() {
		if n++; n <= k {
			r = r*6364136223846793005 + 1442695040888963407 // deterministic LCG
			e.After(simtime.Time(r>>40), step)
		}
	}
	for i := 0; i < 256; i++ {
		e.At(simtime.Time(i), step)
	}
	e.Run()
	return e.Steps()
}

// mkTraffic returns a scenario body running a fixed permutation
// traffic pattern through one sequential network model.
func mkTraffic(m simnet.Model, msgs int, bytes int64) func(bool) uint64 {
	return func(short bool) uint64 {
		if short {
			msgs = max(msgs/4, 8)
		}
		mach, err := machine.Edison(96, 24)
		if err != nil {
			panic(err)
		}
		var eng des.Engine
		net, err := simnet.New(m, &eng, mach, simnet.Config{})
		if err != nil {
			panic(err)
		}
		delivered := 0
		for k := 0; k < msgs; k++ {
			src := int32(k % 96)
			dst := int32((k*37 + 11) % 96)
			if src == dst {
				dst = (dst + 1) % 96
			}
			net.Send(src, dst, bytes, func() { delivered++ })
		}
		eng.Run()
		if delivered != msgs {
			panic(fmt.Sprintf("%s delivered %d of %d", m, delivered, msgs))
		}
		return eng.Steps()
	}
}

// benchFlowAlltoall is one 64 KiB all-to-all over 64 ranks on Edison at
// its native 24 ranks per node. Each rank posts all 63 sends at once,
// the ranks entering 1 µs apart as they would after uneven compute.
// Three nodes means the 2,688 cross-node flows ride six routes: the
// many-flows-per-route, many-recomputes shape of the collective
// workloads, where the flow solver's work scales with routes rather
// than flows.
func benchFlowAlltoall(short bool) uint64 {
	ranks, bytes := int32(64), int64(64<<10)
	if short {
		bytes = 8 << 10
	}
	mach, err := machine.Edison(int(ranks), 0)
	if err != nil {
		panic(err)
	}
	var eng des.Engine
	net, err := simnet.New(simnet.Flow, &eng, mach, simnet.Config{})
	if err != nil {
		panic(err)
	}
	delivered, want := 0, int(ranks*(ranks-1))
	done := func() { delivered++ }
	for src := int32(0); src < ranks; src++ {
		eng.At(simtime.Time(src)*simtime.Microsecond, func() {
			for k := int32(1); k < ranks; k++ {
				net.Send(src, (src+k)%ranks, bytes, done)
			}
		})
	}
	eng.Run()
	if delivered != want {
		panic(fmt.Sprintf("flow all-to-all delivered %d of %d", delivered, want))
	}
	return eng.Steps()
}

// replayCols caches the materialized trace shared by the replay
// scenarios (materialization itself is benchmarked elsewhere).
var (
	replayCols *trace.Columns
	replayMach *machine.Config
	// replayV3Path is the replay trace written in the zero-copy v3
	// format to a temp file, the input for trace/codec-open-v3.
	replayV3Path string
)

// replayParams is the shared replay workload.
func replayParams(short bool) workload.Params {
	class := "A"
	if short {
		class = "S"
	}
	return workload.Params{App: "MiniFE", Class: class, Ranks: 64, Machine: "hopper", Seed: 7}
}

func ensureReplay(short bool) {
	if replayCols != nil {
		return
	}
	p := replayParams(short)
	cols, err := workload.MaterializeColumns(p)
	if err != nil {
		panic(err)
	}
	mach, err := machine.New(p.Machine, p.Ranks, 0)
	if err != nil {
		panic(err)
	}
	replayCols, replayMach = cols, mach

	f, err := os.CreateTemp("", "bench-*.htrc3")
	if err != nil {
		panic(err)
	}
	if err := trace.WriteColumnsV3(f, replayCols); err != nil {
		panic(err)
	}
	if err := f.Close(); err != nil {
		panic(err)
	}
	replayV3Path = f.Name()
}

func mkReplay(m simnet.Model) func(bool) uint64 {
	return func(short bool) uint64 {
		ensureReplay(short)
		res, err := mpisim.Replay(replayCols, m, replayMach, simnet.Config{}, mpisim.Options{})
		if err != nil {
			panic(err)
		}
		return res.Events
	}
}

// benchCodecOpenV3 opens the replay trace from a version-3 file via
// OpenMapped: mmap, header/extent validation, and the per-event
// semantic scan — but no decode and no per-column allocation.
func benchCodecOpenV3(short bool) uint64 {
	ensureReplay(short)
	m, err := trace.OpenMapped(replayV3Path)
	if err != nil {
		panic(err)
	}
	n := uint64(m.NumEvents())
	if err := m.Close(); err != nil {
		panic(err)
	}
	return n
}

// benchMaterializeFull generates the replay workload's full trace
// (program only; stamping is in the campaign and cache scenarios).
func benchMaterializeFull(short bool) uint64 {
	tr, err := workload.GenerateColumns(replayParams(short))
	if err != nil {
		panic(err)
	}
	return uint64(tr.NumEvents())
}

// specManifest, when non-nil (-spec), replaces the built-in campaign
// slice so the campaign scenarios benchmark a spec-compiled manifest.
var specManifest []workload.Params

// campaignSuite is the reduced campaign slice both campaign scenarios
// run: every scheme on a handful of class-S traces, exactly as one
// RunCampaign worker would.
func campaignSuite(short bool) []workload.Params {
	if specManifest != nil {
		if short && len(specManifest) > 2 {
			return specManifest[:2]
		}
		return specManifest
	}
	ps := []workload.Params{
		{App: "CG", Class: "S", Ranks: 16, Machine: "cielito", RanksPerNode: 4, Seed: 11},
		{App: "FT", Class: "S", Ranks: 16, Machine: "hopper", RanksPerNode: 4, Seed: 22},
		{App: "LULESH", Class: "S", Ranks: 16, Machine: "edison", RanksPerNode: 4, Seed: 33},
		{App: "IS", Class: "S", Ranks: 16, Machine: "cielito", RanksPerNode: 4, Seed: 44},
	}
	if short {
		return ps[:2]
	}
	return ps
}

// peakHeap is set by the campaign scenarios (sampled max HeapInuse
// during the run) and collected by measure() into the Entry.
var peakHeap uint64

// samplePeakHeap polls HeapInuse until stop is closed and records the
// maximum into peakHeap (keeping the largest across b.N iterations).
func samplePeakHeap(stop chan struct{}, done chan struct{}) {
	defer close(done)
	var m runtime.MemStats
	for {
		runtime.ReadMemStats(&m)
		if m.HeapInuse > peakHeap {
			peakHeap = m.HeapInuse
		}
		select {
		case <-stop:
			return
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// benchCampaignSource is the uncached campaign pipeline: one Runner
// with per-scheme sessions materializing and replaying each trace.
func benchCampaignSource(short bool) uint64 {
	stop, done := make(chan struct{}), make(chan struct{})
	go samplePeakHeap(stop, done)
	defer func() { close(stop); <-done }()
	rn, err := core.NewRunner(nil)
	if err != nil {
		panic(err)
	}
	var events uint64
	for _, p := range campaignSuite(short) {
		r, err := rn.RunOne(p, core.RunOptions{})
		if err != nil {
			panic(err)
		}
		events += uint64(r.Events)
	}
	return events
}

// benchCacheStats is the cache scenarios' side-channel (the peakHeap
// pattern): each body stores its cache's counters here and measure()
// copies the final op's hits/misses into the Entry.
var benchCacheStats tracecache.Stats

// warmCacheDir is the pre-populated trace-cache directory shared by
// the warm scenarios, filled once by ensureWarmCache so the warm
// bodies never pay materialization.
var warmCacheDir string

func ensureWarmCache(short bool) {
	if warmCacheDir != "" {
		return
	}
	dir, err := os.MkdirTemp("", "bench-tracecache-*")
	if err != nil {
		panic(err)
	}
	c, err := tracecache.Open(dir, tracecache.Options{})
	if err != nil {
		panic(err)
	}
	for _, p := range campaignSuite(short) {
		p := p
		_, _, release, _, err := c.AcquireProgram(p, func() (*trace.Columns, *mpisim.Program, error) {
			return workload.MaterializeReplay(p, workload.Limits{})
		})
		if err != nil {
			panic(err)
		}
		release()
	}
	warmCacheDir = dir
}

// benchAcquireCold pays the full miss path for every suite trace:
// materialize, ground-truth stamp, v3 encode, atomic publish. Its warm
// twin below reacquires the same entries as verified mmap hits; the
// ns/op ratio of the pair is the committed evidence for the per-trace
// acquisition cost the cache removes from a warm campaign.
func benchAcquireCold(short bool) uint64 {
	dir, err := os.MkdirTemp("", "bench-tracecache-cold-*")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	c, err := tracecache.Open(dir, tracecache.Options{})
	if err != nil {
		panic(err)
	}
	var events uint64
	for _, p := range campaignSuite(short) {
		p := p
		cols, release, hit, err := c.Acquire(p, func() (*trace.Columns, error) {
			return workload.MaterializeColumns(p)
		})
		if err != nil {
			panic(err)
		}
		if hit {
			panic("cold acquire hit the cache")
		}
		events += uint64(cols.NumEvents())
		release()
	}
	benchCacheStats = c.Stats()
	return events
}

// benchAcquireWarm reacquires the pre-populated suite entries: sidecar
// verification, mmap, and a checksum pass — no generation, no
// stamping, no decode. The panicking materialize callback turns any
// silent miss into a loud failure.
func benchAcquireWarm(short bool) uint64 {
	ensureWarmCache(short)
	c, err := tracecache.Open(warmCacheDir, tracecache.Options{})
	if err != nil {
		panic(err)
	}
	var events uint64
	for _, p := range campaignSuite(short) {
		cols, release, hit, err := c.Acquire(p, func() (*trace.Columns, error) {
			panic("warm acquire missed the cache")
		})
		if err != nil {
			panic(err)
		}
		if !hit {
			panic("warm acquire did not hit")
		}
		events += uint64(cols.NumEvents())
		release()
	}
	benchCacheStats = c.Stats()
	return events
}

// stencilCache holds one class-B stencil trace (the p2p workloads' kind)
// with its stored replay program, for the pair of scenarios that price
// the two ways a campaign gets a program: lowering the trace, or
// mapping the stored one.
var stencilCache struct {
	dir  string
	p    workload.Params
	cols *trace.Columns
}

func ensureStencil(short bool) {
	if stencilCache.dir != "" {
		return
	}
	p := workload.Params{App: "LULESH", Class: "B", Ranks: 128, Machine: "hopper", Seed: 1}
	if short {
		p.Class, p.Ranks = "S", 16
	}
	dir, err := os.MkdirTemp("", "bench-stencil-*")
	if err != nil {
		panic(err)
	}
	c, err := tracecache.Open(dir, tracecache.Options{})
	if err != nil {
		panic(err)
	}
	cols, _, _, _, err := c.AcquireProgram(p, func() (*trace.Columns, *mpisim.Program, error) {
		return workload.MaterializeReplay(p, workload.Limits{})
	})
	if err != nil {
		panic(err)
	}
	stencilCache.dir, stencilCache.p, stencilCache.cols = dir, p, cols
}

// benchLowerStencil lowers the stencil trace into a fresh program: what
// every campaign paid per trace before programs were cached, and what a
// hit whose program is missing or stale still pays. Events are trace
// events.
func benchLowerStencil(short bool) uint64 {
	ensureStencil(short)
	if _, err := mpisim.Lower(stencilCache.cols); err != nil {
		panic(err)
	}
	return uint64(stencilCache.cols.NumEvents())
}

// benchOpenProgram acquires the stencil trace and its program as a
// cache hit: the trace's verification and mapping plus the program's
// mapping, checksum and validation. Its ns/op over
// mpisim/lower-stencil's is what serving the program saves per trace
// (an upper bound on the program's own open cost, since the trace's
// share is paid either way).
func benchOpenProgram(short bool) uint64 {
	ensureStencil(short)
	c, err := tracecache.Open(stencilCache.dir, tracecache.Options{})
	if err != nil {
		panic(err)
	}
	cols, _, release, hit, err := c.AcquireProgram(stencilCache.p, func() (*trace.Columns, *mpisim.Program, error) {
		panic("stencil acquire missed the cache")
	})
	if err != nil {
		panic(err)
	}
	if !hit || c.Stats().Relowered != 0 {
		panic("stencil acquire did not map a stored program")
	}
	release()
	benchCacheStats = c.Stats()
	return uint64(cols.NumEvents())
}

// benchCampaignColdCache is the Source-native campaign run through an
// empty trace cache: every acquisition materializes and publishes, so
// ns/op = campaign/warm-cache cost plus one-time cache population.
func benchCampaignColdCache(short bool) uint64 {
	stop, done := make(chan struct{}), make(chan struct{})
	go samplePeakHeap(stop, done)
	defer func() { close(stop); <-done }()
	dir, err := os.MkdirTemp("", "bench-campaign-cold-*")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	c, err := tracecache.Open(dir, tracecache.Options{})
	if err != nil {
		panic(err)
	}
	rs, _, err := core.RunCampaign(campaignSuite(short), core.CampaignConfig{Workers: 2, Cache: c})
	if err != nil {
		panic(err)
	}
	var events uint64
	for _, r := range rs {
		events += uint64(r.Events)
	}
	benchCacheStats = c.Stats()
	return events
}

// benchCampaignWarmCache replays the same campaign against the
// pre-populated cache: generation and stamping drop out entirely and
// the run is replay-bound. The gap to campaign/source-native is the
// wall-time the cache saves per repeated campaign.
func benchCampaignWarmCache(short bool) uint64 {
	stop, done := make(chan struct{}), make(chan struct{})
	go samplePeakHeap(stop, done)
	defer func() { close(stop); <-done }()
	ensureWarmCache(short)
	c, err := tracecache.Open(warmCacheDir, tracecache.Options{})
	if err != nil {
		panic(err)
	}
	rs, _, err := core.RunCampaign(campaignSuite(short), core.CampaignConfig{Workers: 2, Cache: c})
	if err != nil {
		panic(err)
	}
	if st := c.Stats(); st.Misses != 0 {
		panic(fmt.Sprintf("warm campaign missed the cache %d times", st.Misses))
	}
	var events uint64
	for _, r := range rs {
		events += uint64(r.Events)
	}
	benchCacheStats = c.Stats()
	return events
}

// benchCampaignTriageTwoPass is the two-pass schedule the cache was
// built for: the provisional model pass acquires (and publishes) every
// trace, then the escalation pass reacquires the escalated ones — warm
// hits against the entries the first pass just created, instead of a
// second materialization per escalated trace.
func benchCampaignTriageTwoPass(short bool) uint64 {
	stop, done := make(chan struct{}), make(chan struct{})
	go samplePeakHeap(stop, done)
	defer func() { close(stop); <-done }()
	dir, err := os.MkdirTemp("", "bench-campaign-triage-*")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	c, err := tracecache.Open(dir, tracecache.Options{})
	if err != nil {
		panic(err)
	}
	rs, rep, err := core.RunCampaign(campaignSuite(short), core.CampaignConfig{
		Workers: 2,
		Cache:   c,
		Triage:  &triage.Policy{Threshold: 0.5, Calibration: 1, Seed: 7},
	})
	if err != nil {
		panic(err)
	}
	if rep.Triage == nil || rep.Triage.Escalated == 0 {
		panic("triage scenario escalated nothing — the two-pass shape is gone")
	}
	var events uint64
	for _, r := range rs {
		events += uint64(r.Events)
	}
	benchCacheStats = c.Stats()
	return events
}

// startProfiles turns on the requested pprof outputs and returns the
// function that finalizes them (stops the CPU profile, snapshots the
// heap after a final GC).
func startProfiles(cpu, mem string) (func(), error) {
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
	}
	return func() {
		if cpu != "" {
			pprof.StopCPUProfile()
		}
		if mem != "" {
			f, err := os.Create(mem)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
		}
	}, nil
}

func measure(sc scenario, short bool) Entry {
	var events uint64
	peakHeap = 0
	benchCacheStats = tracecache.Stats{}
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			events = sc.body(short)
		}
	})
	e := Entry{
		Name:          sc.name,
		NsPerOp:       float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp:   float64(r.MemAllocs) / float64(r.N),
		BytesPerOp:    float64(r.MemBytes) / float64(r.N),
		EventsPerOp:   float64(events),
		PeakHeapBytes: float64(peakHeap),
		CacheHits:     float64(benchCacheStats.Hits),
		CacheMisses:   float64(benchCacheStats.Misses),
	}
	if events > 0 {
		e.NsPerEvent = e.NsPerOp / float64(events)
		e.AllocsPerEvent = e.AllocsPerOp / float64(events)
		e.BytesPerEvent = e.BytesPerOp / float64(events)
	}
	return e
}

func main() {
	out := flag.String("out", fmt.Sprintf("BENCH_%s.json", time.Now().Format("2006-01-02")),
		"snapshot output path (empty = stdout only)")
	baselinePath := flag.String("baseline", "", "earlier snapshot to compare against and embed")
	short := flag.Bool("short", false, "reduced workloads (CI gate mode)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile at exit to this file")
	specPath := flag.String("spec", "", "benchmark the campaign scenarios over this YAML/JSON campaign spec's manifest instead of the built-in slice")
	flag.Parse()

	if *specPath != "" {
		s, err := spec.Load(*specPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(2)
		}
		c, err := spec.Compile(s)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(2)
		}
		specManifest = c.Manifest
		fmt.Printf("bench: campaign scenarios use %d traces from %s (%s)\n", len(specManifest), *specPath, c.Hash())
	}

	stopProfiles, err := startProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	defer stopProfiles()

	var baseline *Snapshot
	if *baselinePath != "" {
		data, err := os.ReadFile(*baselinePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: reading baseline: %v\n", err)
			os.Exit(1)
		}
		baseline = &Snapshot{}
		if err := json.Unmarshal(data, baseline); err != nil {
			fmt.Fprintf(os.Stderr, "bench: parsing baseline: %v\n", err)
			os.Exit(1)
		}
	}
	base := map[string]Entry{}
	if baseline != nil {
		for _, e := range baseline.Entries {
			base[e.Name] = e
		}
	}

	snap := Snapshot{
		Date:       time.Now().Format("2006-01-02"),
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Short:      *short,
	}
	fmt.Printf("%-28s %14s %14s %14s\n", "scenario", "ns/event", "allocs/event", "B/event")
	for _, sc := range scenarios() {
		e := measure(sc, *short)
		snap.Entries = append(snap.Entries, e)
		line := fmt.Sprintf("%-28s %14.1f %14.4f %14.1f", e.Name, e.NsPerEvent, e.AllocsPerEvent, e.BytesPerEvent)
		if b, ok := base[e.Name]; ok && b.AllocsPerEvent > 0 {
			line += fmt.Sprintf("   allocs %+.1f%%, ns %+.1f%% vs baseline",
				100*(e.AllocsPerEvent/b.AllocsPerEvent-1), 100*(e.NsPerEvent/b.NsPerEvent-1))
		}
		fmt.Println(line)
	}
	if baseline != nil {
		snap.BaselineFile = *baselinePath
		snap.Baseline = baseline.Entries
	}

	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", *out)
}
