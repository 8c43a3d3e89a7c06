// Package workload synthesizes MPI communication traces for the
// application suite of the study: eight NAS Parallel Benchmarks (CG,
// MG, FT, IS, LU, BT, EP, DT), the DOE DesignForward extracted kernels
// (Big FFT, Crystal Router), mini-apps (AMG, MiniFE, LULESH, CNS, CMC,
// Nekbone), and full applications (MultiGrid, FillBoundary).
//
// The paper's traces are proprietary DUMPI collections; these
// generators substitute synthetic programs that reproduce each code's
// published communication structure — stencil halos, transposes,
// all-to-all(v) exchanges, wavefront pipelines, irregular routing — and
// compute/communication balance. A generated trace is a *program*
// (compute durations plus communication structure); the ground-truth
// executor stamps "measured" timestamps by running it through the
// detailed contention simulator with system noise (see MaterializeColumns).
package workload

import (
	"fmt"
	"math/rand"
	"sort"

	"hpctradeoff/internal/simtime"
	"hpctradeoff/internal/trace"
)

// SchemaVersion identifies the generator + ground-truth-stamping
// semantics: two builds with the same SchemaVersion produce
// bit-identical stamped traces for the same Params. Bump it whenever a
// generator, the noise model, or the stamping executor changes observed
// output — content-addressed caches fold it into their keys, so a bump
// invalidates every cached trace instead of silently replaying stale
// ground truth.
//
// Version 2: Params grew the Noise sub-struct (platform variability as
// a swept campaign axis). A zero Noise stamps bit-identically to
// version 1, but the cache key space must not collide with entries
// keyed before the field existed.
const SchemaVersion = 2

// Noise selects the platform-variability model applied while stamping
// ground truth — the swept axis of the variability study. The zero
// value reproduces the historical stamping exactly (the paper's fixed
// collection conditions); non-zero amplitudes perturb only the
// ground-truth execution, never the prediction replays, so they widen
// the gap every scheme is measured against.
type Noise struct {
	// LinkJitter is the sigma of the lognormal per-link bandwidth
	// multiplier drawn once per link of the ground-truth machine
	// (0 = every link at nominal bandwidth).
	LinkJitter float64 `json:",omitempty"`
	// NodeHetero is the amplitude of heterogeneous node speeds: each
	// node's compute runs slower by a factor drawn uniformly from
	// [1, 1+NodeHetero] (0 = homogeneous nodes).
	NodeHetero float64 `json:",omitempty"`
	// OSNoise scales the OS-noise model's spike probability, compute
	// jitter sigma, and per-call overhead jitter by (1 + OSNoise)
	// (0 = the paper-default noise model unchanged).
	OSNoise float64 `json:",omitempty"`
	// Seed offsets the noise draws from the trace seed, so a sweep can
	// resample the same amplitudes with independent streams.
	Seed int64 `json:",omitempty"`
}

// IsZero reports whether n is the zero (historical, noise-default)
// configuration.
func (n Noise) IsZero() bool { return n == Noise{} }

// Params selects one generated trace.
type Params struct {
	// App is one of Apps().
	App string
	// Class scales the problem (NPB-style): "S", "A", "B", or "C".
	Class string
	// Ranks is the number of MPI ranks.
	Ranks int
	// Machine names the system the trace is (nominally) collected on;
	// it is recorded in the metadata and selects the ground-truth
	// machine model.
	Machine string
	// RanksPerNode is the placement density (0 = machine default).
	RanksPerNode int
	// Seed drives all randomness in the generator.
	Seed int64
	// Iters overrides the app's default iteration count when > 0.
	Iters int
	// Noise is the platform-variability configuration the ground-truth
	// stamper applies; the zero value is the historical fixed platform.
	Noise Noise `json:",omitzero"`
}

// generator builds the program for one application.
type generator struct {
	fn func(g *gen) error
	// defaultIters is the app's default outer iteration count.
	defaultIters int
	// usesCommSplit marks apps that create sub-communicators with
	// complex grouping (SST/Macro 3.0's flow model cannot replay them).
	usesCommSplit bool
	// usesThreadMultiple marks apps traced with MPI_THREAD_MULTIPLE
	// (neither 3.0 model can replay them).
	usesThreadMultiple bool
}

var registry = map[string]generator{
	// NAS Parallel Benchmarks.
	"CG": {fn: genCG, defaultIters: 15},
	"MG": {fn: genMG, defaultIters: 4},
	"FT": {fn: genFT, defaultIters: 6},
	"IS": {fn: genIS, defaultIters: 10},
	"LU": {fn: genLU, defaultIters: 12},
	"BT": {fn: genBT, defaultIters: 8},
	"EP": {fn: genEP, defaultIters: 1},
	"DT": {fn: genDT, defaultIters: 1},
	// DOE DesignForward kernels and applications.
	"BigFFT":        {fn: genBigFFT, defaultIters: 4, usesCommSplit: true},
	"CrystalRouter": {fn: genCR, defaultIters: 6},
	"AMG":           {fn: genAMG, defaultIters: 5},
	"MiniFE":        {fn: genMiniFE, defaultIters: 12},
	"LULESH":        {fn: genLULESH, defaultIters: 10},
	"CNS":           {fn: genCNS, defaultIters: 8},
	"CMC":           {fn: genCMC, defaultIters: 8},
	"Nekbone":       {fn: genNekbone, defaultIters: 12},
	"MultiGrid":     {fn: genMultiGrid, defaultIters: 4, usesCommSplit: true},
	"FillBoundary":  {fn: genFB, defaultIters: 6, usesThreadMultiple: true},
}

// Apps lists the application names in a stable order.
func Apps() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// classScale maps a problem class to a work multiplier (B = 1).
func classScale(class string) (float64, error) {
	switch class {
	case "S":
		return 0.05, nil
	case "A":
		return 0.3, nil
	case "B":
		return 1, nil
	case "C":
		return 3, nil
	}
	return 0, fmt.Errorf("workload: unknown class %q", class)
}

// gen is the per-generation context handed to app builders.
type gen struct {
	p     Params
	b     *trace.Builder
	rng   *rand.Rand
	n     int
	iters int
	// scale is the class work multiplier.
	scale float64
}

// GenerateColumns builds the structural trace (program) for p.
// Timestamps carry only the intended compute durations; see
// MaterializeColumns for stamping measured times.
func GenerateColumns(p Params) (*trace.Columns, error) {
	g, ok := registry[p.App]
	if !ok {
		return nil, fmt.Errorf("workload: unknown app %q (have %v)", p.App, Apps())
	}
	if p.Ranks < 2 {
		return nil, fmt.Errorf("workload: need ≥ 2 ranks, got %d", p.Ranks)
	}
	scale, err := classScale(p.Class)
	if err != nil {
		return nil, err
	}
	iters := p.Iters
	if iters <= 0 {
		iters = g.defaultIters
	}
	meta := trace.Meta{
		App:                p.App,
		Class:              p.Class,
		Machine:            p.Machine,
		NumRanks:           p.Ranks,
		RanksPerNode:       p.RanksPerNode,
		Seed:               p.Seed,
		UsesThreadMultiple: g.usesThreadMultiple,
	}
	ctx := &gen{
		p:     p,
		b:     trace.NewBuilder(meta),
		rng:   rand.New(rand.NewSource(p.Seed ^ int64(p.Ranks)*0x9e37 ^ hashName(p.App))),
		n:     p.Ranks,
		iters: iters,
		scale: scale,
	}
	if err := g.fn(ctx); err != nil {
		return nil, fmt.Errorf("workload: %s: %w", p.App, err)
	}
	c, err := ctx.b.BuildColumns()
	if err != nil {
		return nil, fmt.Errorf("workload: %s: %w", p.App, err)
	}
	if g.usesCommSplit && !c.Meta.UsesCommSplit {
		// The generator is expected to have split communicators; keep
		// the capability flag truthful either way.
		c.Meta.UsesCommSplit = true
	}
	return c, nil
}

func hashName(s string) int64 {
	var h int64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h ^= int64(s[i])
		h *= 1099511628211
	}
	return h
}

// compute emits a compute interval of mean duration d on rank r with
// the given relative jitter (uniform ±jitter) and per-rank skew factor.
func (g *gen) compute(r int, d simtime.Time, jitter float64) {
	if d <= 0 {
		return
	}
	f := 1.0
	if jitter > 0 {
		f += jitter * (2*g.rng.Float64() - 1)
	}
	g.b.Compute(r, d.Scale(f))
}

// computeAll emits the same mean compute on every rank.
func (g *gen) computeAll(d simtime.Time, jitter float64) {
	for r := 0; r < g.n; r++ {
		g.compute(r, d, jitter)
	}
}

// computeSkewed emits per-rank compute with a fixed skew profile drawn
// once per trace: skew[r] ∈ [1, 1+imbalance]. It is how generators
// model application load imbalance (which persists across iterations,
// unlike OS noise).
func (g *gen) computeSkewed(d simtime.Time, skew []float64) {
	for r := 0; r < g.n; r++ {
		g.b.Compute(r, d.Scale(skew[r]))
	}
}

// skewProfile draws a per-rank multiplier profile with the given
// imbalance amplitude.
func (g *gen) skewProfile(imbalance float64) []float64 {
	s := make([]float64, g.n)
	for r := range s {
		s[r] = 1 + imbalance*g.rng.Float64()
	}
	return s
}

// collectiveAll emits a collective on every rank of the world.
func (g *gen) collectiveAll(op trace.Op, root int32, bytes int64) {
	for r := 0; r < g.n; r++ {
		g.b.Collective(r, op, trace.CommWorld, root, bytes)
	}
}

// ms and us are convenience duration constructors.
func ms(f float64) simtime.Time { return simtime.FromSeconds(f / 1e3) }
func us(f float64) simtime.Time { return simtime.FromSeconds(f / 1e6) }
