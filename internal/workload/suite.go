package workload

// The 235-trace study manifest. The rank-bucket distribution mirrors
// the paper's Table Ia exactly:
//
//	ranks      traces
//	64         72
//	65–128     18
//	129–256    80
//	257–512    12
//	513–1024   37
//	1025–1728  16
//	total      235
//
// All-to-all-heavy codes (FT, IS, BigFFT, CrystalRouter, DT, FB) stay
// at ≤256 ranks (as extracted kernels do in the original collection),
// while stencil codes carry the large-rank buckets; the three traces
// the paper's Table II names (CMC@1024, LULESH@512, MiniFE@1152)
// appear at those exact sizes.

// machines rotates deterministically over the three systems.
var suiteMachines = []string{"cielito", "hopper", "edison"}

// stencilApps are the codes cheap enough (per-rank halos shrink with
// scale) to run at ≥512 ranks.
var stencilApps = []string{
	"LULESH", "MiniFE", "CMC", "Nekbone", "AMG", "MG",
	"CNS", "BT", "LU", "CG", "EP", "MultiGrid",
}

// allApps is the full 18-code suite.
var allApps = []string{
	"CG", "MG", "FT", "IS", "LU", "BT", "EP", "DT",
	"BigFFT", "CrystalRouter", "AMG", "MiniFE", "LULESH",
	"CNS", "CMC", "Nekbone", "MultiGrid", "FillBoundary",
}

// SuiteMachine is the manifest's deterministic machine-rotation
// policy: the global manifest index rotates over the three systems,
// except that jobs above 1024 ranks skip Cielito (a 64-node, 1024-core
// machine) and land on Hopper. Campaign specs reference it as
// `machine: rotate`.
func SuiteMachine(index, ranks int) string {
	m := suiteMachines[index%len(suiteMachines)]
	if m == "cielito" && ranks > 1024 {
		m = "hopper"
	}
	return m
}

// SuiteSeed is the manifest's derived-seed policy: a hash of the
// scenario coordinates plus the global manifest index, so every trace
// gets an independent noise/generator stream and re-orderings of the
// manifest are detectable. Campaign specs reference it as
// `seed: derived`.
func SuiteSeed(app, class string, ranks int, machine string, index int) int64 {
	return hashName(app) ^ int64(ranks)<<17 ^ hashName(class) ^ hashName(machine) ^ int64(index)<<37
}

// SuiteIters is the manifest's iteration-count policy: large runs trim
// outer iterations to keep ground-truth stamping affordable (0 means
// the app default). Campaign specs reference it as `iters: auto`.
func SuiteIters(ranks int) int {
	switch {
	case ranks >= 1024:
		return 3
	case ranks >= 512:
		return 4
	}
	return 0
}

// Suite returns the 235 trace parameter sets of the study, built in
// code. No command runs it: campaigns start from specs/paper-235.yaml,
// and Suite is the reference that TestPaper235SpecMatchesSuite holds
// that spec to, field for field.
func Suite() []Params {
	var out []Params
	add := func(app, class string, ranks int) {
		m := SuiteMachine(len(out), ranks)
		out = append(out, Params{
			App:     app,
			Class:   class,
			Ranks:   ranks,
			Machine: m,
			Seed:    SuiteSeed(app, class, ranks, m, len(out)),
			Iters:   SuiteIters(ranks),
		})
	}

	// Bucket 1 — 64 ranks, 72 traces: all 18 apps × 2 classes × 2
	// machine rotations.
	for rep := 0; rep < 2; rep++ {
		for _, app := range allApps {
			for _, class := range []string{"A", "B"} {
				add(app, class, 64)
			}
		}
	}

	// Bucket 2 — 65–128 ranks, 18 traces: all apps at 128, class B.
	for _, app := range allApps {
		add(app, "B", 128)
	}

	// Bucket 3 — 129–256 ranks, 80 traces: all apps × 2 classes × 2
	// rotations at 256 (72), plus 8 stencil codes at 192.
	for rep := 0; rep < 2; rep++ {
		for _, app := range allApps {
			for _, class := range []string{"A", "B"} {
				add(app, class, 256)
			}
		}
	}
	for _, app := range stencilApps[:8] {
		add(app, "B", 192)
	}

	// Bucket 4 — 257–512 ranks, 12 traces: the stencil codes at 512
	// (includes LULESH@512, a Table II entry).
	for _, app := range stencilApps {
		add(app, "B", 512)
	}

	// Bucket 5 — 513–1024 ranks, 37 traces: stencils at 1024 and 768,
	// plus 13 at 576 (the 12 stencils + DT is too small — use class A
	// variants of the first 13 stencil rotations at 576).
	for _, app := range stencilApps {
		add(app, "B", 1024) // includes CMC@1024 (Table II)
	}
	for _, app := range stencilApps {
		add(app, "B", 768)
	}
	for i := 0; i < 13; i++ {
		add(stencilApps[i%len(stencilApps)], "A", 576)
	}

	// Bucket 6 — 1025–1728 ranks, 16 traces: 8 large-scale codes at
	// 1728 and at 1152/1296 (includes MiniFE@1152, a Table II entry).
	large := []string{"LULESH", "CMC", "Nekbone", "AMG", "MG", "EP", "CNS", "MiniFE"}
	for _, app := range large {
		add(app, "B", 1728)
	}
	for _, app := range large {
		if app == "MiniFE" {
			add(app, "B", 1152)
		} else {
			add(app, "B", 1296)
		}
	}

	return out
}

// Filter reduces a manifest: keep every stride-th entry (stride < 1
// means every entry), then drop traces above maxRanks (0 = no cap).
// Campaigns apply it after compiling their spec, so -stride/-maxranks
// filter any compiled manifest.
func Filter(ps []Params, stride, maxRanks int) []Params {
	if stride < 1 {
		stride = 1
	}
	var out []Params
	for i, p := range ps {
		if i%stride != 0 {
			continue
		}
		if maxRanks > 0 && p.Ranks > maxRanks {
			continue
		}
		out = append(out, p)
	}
	return out
}
