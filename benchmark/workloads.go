package main

import (
	"fmt"
	"strings"
)

// workload is one named campaign the benchmark drives. The program
// under test only ever sees the YAML that spec emits.
type workload struct {
	name string
	// why is the one-line reason the workload exists (BENCHMARK.json
	// carries the same text).
	why string
	// warm pre-populates the trace cache during set-up, so the measured
	// campaign bypasses generation, stamping and publishing.
	warm bool
	// triage runs the campaign tiered: threshold 0.5, classifier seed 7,
	// and a calibration split of a third of the manifest. With core's
	// default split of 16 the classifier trained on one seed's traces
	// flags a third more of the manifest than the next seed's (34 to 52
	// of 72 traces at full fidelity over twenty seeds), which makes wall
	// time and per-scheme accuracy bimodal in the seed; a split of 24
	// trains a classifier that settles on 33 to 38.
	triage bool
	// The sweep: apps × classes × ranks × machines × nseeds consecutive
	// trace seeds starting at the benchmark seed.
	apps     []string
	classes  string
	ranks    int
	machines string
	nseeds   int
	// alltoall shapes the network-model-only probe as an all-to-all
	// exchange instead of a permutation.
	alltoall bool
	// tiny marks the -smoke shrink of a workload: it checks paths, not
	// times, so set-up skips the calibration spins and the settle pause.
	tiny bool
}

var (
	stencilApps = []string{"LULESH", "MiniFE", "CMC", "Nekbone", "AMG", "MG", "CNS", "BT", "LU", "CG"}
	allApps     = []string{"CG", "MG", "FT", "IS", "LU", "BT", "EP", "DT", "BigFFT", "CrystalRouter",
		"AMG", "MiniFE", "LULESH", "CNS", "CMC", "Nekbone", "MultiGrid", "FillBoundary"}
)

// The manifests are sized for a 2-core box so that one campaign takes
// about three seconds and a 20-second run repeats it six or seven
// times. Ranks and classes were cut from the issue's 10–22 s manifests
// to fit the driver's total-time cap; the app mix and axes were kept.
var workloads = []workload{
	{
		name: "p2p_cold",
		why: "nearest-neighbour stencil codes on an empty cache: spreads time over generate+stamp+publish, " +
			"all four schemes, mpisim matching and the DES heap",
		apps: stencilApps, classes: "B", ranks: 128, machines: "rotate", nseeds: 1,
	},
	{
		name: "p2p_warm",
		why: "the p2p_cold manifest on a cache filled in set-up: read side of tracecache/codec v3; " +
			"bypasses generation, stamping and publishing, so those must not move it",
		warm: true,
		apps: stencilApps, classes: "B", ranks: 128, machines: "rotate", nseeds: 1,
	},
	{
		name: "collective_cold",
		why: "all-to-all and irregular-router codes: few trace events, many network events, so simnet " +
			"(the flow rate solver above all) dominates and workload/mfact/trace do almost nothing",
		apps: []string{"FT", "IS", "CrystalRouter", "DT"}, classes: "S", ranks: 64,
		machines: "[cielito, hopper, edison]", nseeds: 1, alltoall: true,
	},
	{
		name: "triage_small",
		why: "72 tiny traces through the tiered control loop: fixed per-trace cost (topology build, journal " +
			"fsync, cache publish then second-pass hit), classifier training, and the unsupported path",
		triage: true,
		apps:   allApps, classes: "[S, A]", ranks: 32, machines: "rotate", nseeds: 2,
	},
}

// traces is the manifest size the emitted spec must compile to.
func (w workload) traces() int {
	n := len(w.apps) * w.nseeds * (strings.Count(w.classes, ",") + 1)
	if w.machines != "rotate" {
		n *= strings.Count(w.machines, ",") + 1
	}
	return n
}

// smoke shrinks w to two 16-rank class-S traces, keeping what selects
// its code paths (cache state, triage, traffic shape), so tests run
// every path in well under a second.
func (w workload) smoke() workload {
	w.apps = []string{"CG", "LULESH"}
	if w.alltoall {
		w.apps = []string{"FT", "CrystalRouter"}
	}
	w.classes, w.ranks, w.machines, w.nseeds, w.tiny = "S", 16, "rotate", 1, true
	return w
}

// spec emits the campaign spec for w from the benchmark seed.
func (w workload) spec(seed int64) string {
	seeds := make([]string, w.nseeds)
	for i := range seeds {
		seeds[i] = fmt.Sprint(seed + int64(i))
	}
	var b strings.Builder
	fmt.Fprintf(&b, "name: %s\nschemes: [mfact, packet, flow, packetflow]\nworkers: 1\n", w.name)
	if w.triage {
		fmt.Fprintf(&b, "triage:\n  threshold: 0.5\n  seed: 7\n  calibration: %d\n", w.traces()/3)
	}
	fmt.Fprintf(&b, "groups:\n  - apps: [%s]\n    classes: %s\n    ranks: %d\n    machines: %s\n    seeds: [%s]\n    iters: auto\n",
		strings.Join(w.apps, ", "), w.classes, w.ranks, w.machines, strings.Join(seeds, ", "))
	return b.String()
}
