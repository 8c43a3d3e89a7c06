// Package faultinject is a deterministic, seeded failpoint registry:
// named sites compiled into the pipeline's failure surfaces (trace
// codec reads, scheme execution, checkpoint and results I/O, the DES
// step loop) that do nothing until a test or the chaos harness arms
// them with a schedule of injected faults.
//
// The design goals, in order:
//
//  1. Zero cost when disarmed. A disarmed Site.Fail() is one atomic
//     pointer load and a nil check — no map lookup, no lock, no time
//     read — so production binaries keep every site compiled in.
//  2. Determinism. A fault schedule is a seed plus a rule list; two
//     runs with the same seed, rules, and hit order fire identically.
//     Probabilistic rules draw from a per-rule rand.Rand seeded from
//     the schedule seed and the rule's identity, never from global
//     randomness or the clock.
//  3. Observability. Every firing is appended to a log (site, label,
//     hit index, action) so a harness can assert two runs saw the
//     same schedule, and a failed soak can print exactly what it
//     injected.
//
// Sites are package-level variables created with NewSite at init time.
// Call sites decide what a returned error means: the trace codec turns
// it into a read error, the checkpoint appender into an I/O failure,
// the scheme adapters return it as a scheme error. ActPanic fires by
// panicking (exercising recover paths), ActStall by sleeping (
// exercising wall-clock budgets and watchdogs) and then continuing.
package faultinject

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjected is the default cause carried by injected errors; callers
// and tests match it with errors.Is.
var ErrInjected = errors.New("faultinject: injected fault")

// Action is what a rule does when it fires.
type Action string

// The supported fault actions.
const (
	// ActError makes Fail return an *Injected error.
	ActError Action = "error"
	// ActPanic makes Fail panic with an *Injected value, exercising
	// the caller's recover/isolation path.
	ActPanic Action = "panic"
	// ActStall makes Fail sleep for the rule's Stall duration and then
	// return nil: the operation proceeds, late — the shape of a hung
	// I/O or a livelocked peer that a wall-clock budget must catch.
	ActStall Action = "stall"
	// ActTorn makes Fail return an *Injected error that the call site
	// interprets as "crash mid-write": sites that know how (the
	// checkpoint appender) emit a torn partial record before failing.
	ActTorn Action = "torn-write"
)

// Rule schedules faults at one site. A rule fires on a hit when the
// hit matches its trigger (Hits, Every, or Prob — checked in that
// order; a rule with none of them set fires on every hit) and it has
// fired fewer than MaxFires times. Hit indices are 1-based and count
// only hits whose label matches the rule's Label filter.
type Rule struct {
	// Site names the failpoint this rule arms (must exist).
	Site string
	// Label, when non-empty, restricts the rule to hits carrying this
	// label (e.g. one scheme's name at the scheme-run site).
	Label string
	// Hits lists the 1-based matching-hit indices that fire.
	Hits []uint64
	// Every fires on every Nth matching hit (when Hits is empty).
	Every uint64
	// Prob fires each matching hit with this probability (when Hits
	// and Every are unset), drawn from the rule's seeded RNG.
	Prob float64
	// MaxFires caps the rule's total firings; 0 means unlimited.
	MaxFires int
	// Action is what firing does. Empty means ActError.
	Action Action
	// Err, when non-nil, is the cause wrapped by the injected error
	// (so a schedule can inject typed failures like ENOSPC analogues);
	// nil wraps ErrInjected.
	Err error
	// Stall is ActStall's sleep duration.
	Stall time.Duration
}

// Injected is the error returned (or the value panicked) by a firing
// rule. It unwraps to the rule's Err, or ErrInjected when none was
// set, so call sites classify injected faults with errors.Is.
type Injected struct {
	Site   string
	Label  string
	Hit    uint64
	Action Action
	Cause  error
}

// Error implements error.
func (e *Injected) Error() string {
	if e.Label != "" {
		return fmt.Sprintf("faultinject: %s at %s[%s] (hit %d): %v", e.Action, e.Site, e.Label, e.Hit, e.Unwrap())
	}
	return fmt.Sprintf("faultinject: %s at %s (hit %d): %v", e.Action, e.Site, e.Hit, e.Unwrap())
}

// Unwrap exposes the cause to errors.Is/As.
func (e *Injected) Unwrap() error {
	if e.Cause != nil {
		return e.Cause
	}
	return ErrInjected
}

// Firing is one log entry: rule r fired at site/label on the given
// matching-hit index.
type Firing struct {
	Site   string
	Label  string
	Hit    uint64
	Action Action
}

// String renders the firing for schedule logs.
func (f Firing) String() string {
	if f.Label != "" {
		return fmt.Sprintf("%s[%s]#%d:%s", f.Site, f.Label, f.Hit, f.Action)
	}
	return fmt.Sprintf("%s#%d:%s", f.Site, f.Hit, f.Action)
}

// Site is a named failpoint. Create sites with NewSite at package init
// and call Fail (or FailLabel) where the fault would surface.
type Site struct {
	name string
	arm  atomic.Pointer[armedSite]
}

// Name returns the site's registry name.
func (s *Site) Name() string { return s.name }

// Enabled reports whether any rule is armed at this site.
func (s *Site) Enabled() bool { return s.arm.Load() != nil }

// Fail is FailLabel with no label.
func (s *Site) Fail() error { return s.FailLabel("") }

// FailLabel records one hit at the site and runs the first armed rule
// that fires: ActError/ActTorn return an *Injected error, ActPanic
// panics with one, ActStall sleeps and returns nil. With nothing
// armed it returns nil after a single atomic load.
func (s *Site) FailLabel(label string) error {
	a := s.arm.Load()
	if a == nil {
		return nil
	}
	return a.hit(s.name, label)
}

// armedRule is one rule plus its firing state.
type armedRule struct {
	rule  Rule
	rng   *rand.Rand
	seen  uint64 // matching hits observed
	fires int
	hits  map[uint64]bool // set form of rule.Hits
}

// fire decides whether this matching hit fires. Caller holds the
// site lock.
func (r *armedRule) fire() bool {
	r.seen++
	if r.rule.MaxFires > 0 && r.fires >= r.rule.MaxFires {
		return false
	}
	hit := false
	switch {
	case len(r.hits) > 0:
		hit = r.hits[r.seen]
	case r.rule.Every > 0:
		hit = r.seen%r.rule.Every == 0
	case r.rule.Prob > 0:
		hit = r.rng.Float64() < r.rule.Prob
	default:
		hit = true
	}
	if hit {
		r.fires++
	}
	return hit
}

// armedSite is a site's armed state: its rules, in arm order.
type armedSite struct {
	mu    sync.Mutex
	rules []*armedRule
}

// hit evaluates the site's rules for one hit. Every rule whose label
// filter matches advances its counter; the first that fires wins.
func (a *armedSite) hit(site, label string) error {
	var won *armedRule
	var inj *Injected
	a.mu.Lock()
	for _, r := range a.rules {
		if r.rule.Label != "" && r.rule.Label != label {
			continue
		}
		if won == nil && r.fire() {
			won = r
			inj = &Injected{Site: site, Label: label, Hit: r.seen, Action: r.action(), Cause: r.rule.Err}
		} else if won != nil {
			// Later rules still count the hit so their schedules do not
			// depend on which earlier rule happened to fire first.
			r.seen++
		}
	}
	a.mu.Unlock()
	if won == nil {
		return nil
	}
	recordFiring(Firing{Site: inj.Site, Label: inj.Label, Hit: inj.Hit, Action: inj.Action})
	switch inj.Action {
	case ActPanic:
		panic(inj)
	case ActStall:
		time.Sleep(won.rule.Stall)
		return nil
	default:
		return inj
	}
}

// action returns the rule's action with the ActError default applied.
func (r *armedRule) action() Action {
	if r.rule.Action == "" {
		return ActError
	}
	return r.rule.Action
}

// The registry: every site ever created, plus the firing log of the
// currently-armed schedule.
var (
	regMu sync.Mutex
	sites = map[string]*Site{}
	log   []Firing
	logMu sync.Mutex
)

// NewSite returns the site registered under name, creating it if
// needed. Calling NewSite twice with one name yields the same site, so
// packages can share a site without import-order coupling.
func NewSite(name string) *Site {
	regMu.Lock()
	defer regMu.Unlock()
	if s, ok := sites[name]; ok {
		return s
	}
	s := &Site{name: name}
	sites[name] = s
	return s
}

// Arm installs a fault schedule: the rules are grouped by site and
// armed atomically per site, replacing any previous schedule, and the
// firing log is reset. Each rule's RNG is seeded from the schedule
// seed and the rule's identity (site, label, index), so the same
// (seed, rules) always produce the same probabilistic decisions. An
// unknown site name is an error and arms nothing.
func Arm(seed int64, rules []Rule) error {
	regMu.Lock()
	defer regMu.Unlock()
	bySite := map[string][]*armedRule{}
	for i, r := range rules {
		if _, ok := sites[r.Site]; !ok {
			return fmt.Errorf("faultinject: unknown site %q", r.Site)
		}
		ar := &armedRule{rule: r, rng: rand.New(rand.NewSource(ruleSeed(seed, r.Site, r.Label, i)))}
		if len(r.Hits) > 0 {
			ar.hits = make(map[uint64]bool, len(r.Hits))
			for _, h := range r.Hits {
				ar.hits[h] = true
			}
		}
		bySite[r.Site] = append(bySite[r.Site], ar)
	}
	for name, s := range sites {
		if rs := bySite[name]; rs != nil {
			s.arm.Store(&armedSite{rules: rs})
		} else {
			s.arm.Store(nil)
		}
	}
	logMu.Lock()
	log = nil
	logMu.Unlock()
	return nil
}

// Disarm removes every armed rule; all sites return to their zero-cost
// disabled state. The firing log is kept until the next Arm so a
// harness can inspect what a finished run injected.
func Disarm() {
	regMu.Lock()
	defer regMu.Unlock()
	for _, s := range sites {
		s.arm.Store(nil)
	}
}

// Fired returns a copy of the firing log accumulated since the last
// Arm, in firing order.
func Fired() []Firing {
	logMu.Lock()
	defer logMu.Unlock()
	return append([]Firing(nil), log...)
}

func recordFiring(f Firing) {
	logMu.Lock()
	log = append(log, f)
	logMu.Unlock()
}

// ruleSeed derives a rule's RNG seed from the schedule seed and the
// rule's identity, via FNV-1a so nearby seeds do not correlate.
func ruleSeed(seed int64, site, label string, index int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%s|%d", seed, site, label, index)
	return int64(h.Sum64())
}
