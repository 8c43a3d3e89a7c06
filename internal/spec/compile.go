package spec

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"hpctradeoff/internal/triage"
	"hpctradeoff/internal/workload"
)

// MaxManifest caps the compiled manifest size. The cap is a validation
// rule, not a truncation: a spec whose cross-product exceeds it fails
// with a typed *Error before any Params are materialized (the fuzz
// corpus carries a huge-cross-product seed holding this).
const MaxManifest = 100_000

// Compiled is a spec compiled to its manifest and campaign
// configuration. Compilation is deterministic: the same spec document
// always yields byte-identical manifests and the same Hash.
type Compiled struct {
	Name      string
	Manifest  []workload.Params
	Schemes   []string
	Triage    *triage.Policy
	Workers   int
	KeepGoing bool
	Timeout   time.Duration
	MaxEvents uint64
	hash      string
}

// Compile expands the spec's groups into the campaign manifest,
// applying the documented sweep order and threading the global
// manifest index across groups for the rotate/derived/auto policies.
func Compile(s *Spec) (*Compiled, error) {
	total := 0
	for gi := range s.Groups {
		n := s.Groups[gi].size()
		if n < 0 || total+n > MaxManifest {
			return nil, errf(0, fmt.Sprintf("groups[%d]", gi),
				"cross-product exceeds the %d-entry manifest cap", MaxManifest)
		}
		total += n
	}

	c := &Compiled{
		Name:      s.Name,
		Manifest:  make([]workload.Params, 0, total),
		Schemes:   append([]string(nil), s.Schemes...),
		Triage:    s.Triage,
		Workers:   s.Workers,
		KeepGoing: s.KeepGoing,
		Timeout:   s.Timeout,
		MaxEvents: s.MaxEvents,
	}
	for gi := range s.Groups {
		expandGroup(&s.Groups[gi], &c.Manifest)
	}
	h, err := hashCompiled(c)
	if err != nil {
		return nil, errf(0, "", "hashing compiled spec: %v", err)
	}
	c.hash = h
	return c, nil
}

// size is the group's cross-product cardinality before exclusions,
// or -1 on overflow past MaxManifest.
func (g *Group) size() int {
	mul := func(n, f int) int {
		if n < 0 || f <= 0 || n > MaxManifest/f {
			return -1
		}
		return n * f
	}
	or1 := func(n int) int {
		if n == 0 {
			return 1
		}
		return n
	}
	n := or1(g.Repeat)
	n = mul(n, len(g.Apps))
	n = mul(n, len(g.Classes))
	n = mul(n, len(g.Ranks))
	n = mul(n, or1(len(g.Machines)))
	n = mul(n, or1(len(g.RanksPerNode)))
	n = mul(n, or1(len(g.Seeds)))
	n = mul(n, or1(len(g.Iters)))
	n = mul(n, or1(len(g.Noise.LinkJitter)))
	n = mul(n, or1(len(g.Noise.NodeHetero)))
	n = mul(n, or1(len(g.Noise.OSNoise)))
	n = mul(n, or1(len(g.Noise.Seeds)))
	return n
}

// expandGroup appends the group's combinations to the manifest in the
// documented sweep order. The rotate/derived policies see the global
// index len(*out), exactly as workload.Suite's add() does, which is
// what makes specs/paper-235.yaml reproduce Suite() bit for bit.
func expandGroup(g *Group, out *[]workload.Params) {
	repeat := g.Repeat
	if repeat == 0 {
		repeat = 1
	}
	machines := g.Machines
	if g.Rotate || len(machines) == 0 {
		machines = []string{""} // placeholder: resolved per-index below
	}
	rpns := g.RanksPerNode
	if len(rpns) == 0 {
		rpns = []int{0}
	}
	seeds := g.Seeds
	if g.Derived || len(seeds) == 0 {
		seeds = []int64{0}
	}
	iters := g.Iters
	if g.Auto || len(iters) == 0 {
		iters = []int{0}
	}
	or0f := func(v []float64) []float64 {
		if len(v) == 0 {
			return []float64{0}
		}
		return v
	}
	njitter := or0f(g.Noise.LinkJitter)
	nhetero := or0f(g.Noise.NodeHetero)
	nos := or0f(g.Noise.OSNoise)
	nseeds := g.Noise.Seeds
	if len(nseeds) == 0 {
		nseeds = []int64{0}
	}

	for rep := 0; rep < repeat; rep++ {
		for _, app := range g.Apps {
			for _, class := range g.Classes {
				for _, ranks := range g.Ranks {
					for _, mach := range machines {
						for _, rpn := range rpns {
							for _, seed := range seeds {
								for _, it := range iters {
									for _, lj := range njitter {
										for _, nh := range nhetero {
											for _, osn := range nos {
												for _, ns := range nseeds {
													index := len(*out)
													m := mach
													if g.Rotate {
														m = workload.SuiteMachine(index, ranks)
													}
													sd := seed
													if g.Derived {
														sd = workload.SuiteSeed(app, class, ranks, m, index)
													}
													i := it
													if g.Auto {
														i = workload.SuiteIters(ranks)
													}
													p := workload.Params{
														App:          app,
														Class:        class,
														Ranks:        ranks,
														Machine:      m,
														RanksPerNode: rpn,
														Seed:         sd,
														Iters:        i,
														Noise: workload.Noise{
															LinkJitter: lj,
															NodeHetero: nh,
															OSNoise:    osn,
															Seed:       ns,
														},
													}
													if excluded(g.Exclude, p) {
														continue
													}
													*out = append(*out, p)
												}
											}
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}
}

func excluded(matches []Match, p workload.Params) bool {
	for _, m := range matches {
		if m.hits(p) {
			return true
		}
	}
	return false
}

// hashDoc is the canonical form the spec hash covers: everything that
// changes what a campaign computes. Name is deliberately excluded —
// relabeling a spec must not orphan its checkpoint journals — and so
// are workers, because a campaign is bit-identical at any worker
// count, and formatting, because the hash is taken over the compiled
// output, not the source text.
type hashDoc struct {
	Manifest  []workload.Params `json:"manifest"`
	Schemes   []string          `json:"schemes,omitempty"`
	Triage    *triage.Policy    `json:"triage,omitempty"`
	KeepGoing bool              `json:"keep_going,omitempty"`
	TimeoutNS int64             `json:"timeout_ns,omitempty"`
	MaxEvents uint64            `json:"max_events,omitempty"`
}

func hashCompiled(c *Compiled) (string, error) {
	h := sha256.New()
	if err := json.NewEncoder(h).Encode(hashDoc{
		Manifest:  c.Manifest,
		Schemes:   c.Schemes,
		Triage:    c.Triage,
		KeepGoing: c.KeepGoing,
		TimeoutNS: int64(c.Timeout),
		MaxEvents: c.MaxEvents,
	}); err != nil {
		return "", err
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil))[:32], nil
}

// Hash identifies the compiled campaign; core.CampaignConfig.SpecHash
// carries it into the checkpoint header, where the resume gate holds
// journals to the spec that wrote them.
func (c *Compiled) Hash() string { return c.hash }
