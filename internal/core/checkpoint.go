package core

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"

	"hpctradeoff/internal/triage"
	"hpctradeoff/internal/workload"
)

// The campaign checkpoint is an append-only JSONL journal: a header
// line recording the schema version and the campaign's identity, then
// one self-contained line per completed trace (and, for a tiered
// campaign, per triage decision). Appending a line is the only write,
// so a crash at any instant leaves at worst one truncated final line,
// which the loader tolerates. The final results JSON is still written
// separately (atomically) by SaveResultsFile; the journal exists so a
// killed campaign restarts where it left off.
//
// The identity (journalID) is the sorted scheme set, the normalized
// triage policy and the compiled spec's hash. It is what makes
// resumption safe: a journal written by `-schemes mfact,packet`, under
// another triage policy or another spec must not silently satisfy this
// campaign, so RunCampaign compares the header's identity with its own
// and refuses any difference.

// checkpointEntry is one journal line: a header (Header true, Schemes
// set, plus the triage policy for tiered campaigns), a trace record
// (Key and Result set), or a triage-decision record (Decision set).
type checkpointEntry struct {
	Version  int              `json:"version"`
	Header   bool             `json:"header,omitempty"`
	Schemes  []string         `json:"schemes,omitempty"`
	Triage   *triage.Policy   `json:"triage,omitempty"`
	Spec     string           `json:"spec,omitempty"`
	Key      string           `json:"key,omitempty"`
	Result   *TraceResult     `json:"result,omitempty"`
	Decision *triage.Decision `json:"decision,omitempty"`
}

// checkpointVersion is the journal schema version. Version 1 (the
// pre-scheme-registry schema, whose results carried Model/Sims fields)
// and version 2 (pre-triage: no policy header, no decision records)
// are rejected with ErrCheckpointVersion, not silently skipped.
const checkpointVersion = 3

// ErrCheckpointVersion is wrapped by loader errors rejecting a journal
// line written under a different checkpoint schema version.
var ErrCheckpointVersion = errors.New("core: checkpoint schema version mismatch")

// CampaignKey identifies a manifest entry across campaign runs. It
// covers every Params field that changes the generated trace, so a
// resumed campaign never mistakes one configuration's result for
// another's. (The key is computed from the manifest params, not the
// result, so a trace whose generation failed still has a key. The
// scheme set is journal-global, in the header, rather than per-key.)
func CampaignKey(p workload.Params) string {
	key := fmt.Sprintf("%s.%s.x%d.%s.n%d.s%d.i%d",
		p.App, p.Class, p.Ranks, p.Machine, p.RanksPerNode, p.Seed, p.Iters)
	if !p.Noise.IsZero() {
		// The noise suffix is conditional so every key journaled before
		// Params grew the Noise field stays valid: a zero-noise manifest
		// resumes against its historical journal byte-for-byte.
		key += fmt.Sprintf("~lj%g.nh%g.os%g.ns%d",
			p.Noise.LinkJitter, p.Noise.NodeHetero, p.Noise.OSNoise, p.Noise.Seed)
	}
	return key
}

// sortedSchemes returns a sorted copy of names (the canonical header
// form, so selection order does not matter for resumption).
func sortedSchemes(names []string) []string {
	out := append([]string(nil), names...)
	sort.Strings(out)
	return out
}

// journalID is the identity a journal's header records (see above); a
// journal resumes only under an equal one.
type journalID struct {
	schemes []string
	triage  *triage.Policy
	spec    string
}

func (id journalID) equal(o journalID) bool {
	return slices.Equal(id.schemes, o.schemes) && id.spec == o.spec &&
		(id.triage == nil) == (o.triage == nil) &&
		(id.triage == nil || id.triage.Equal(*o.triage))
}

func (id journalID) String() string {
	pol := "none"
	if id.triage != nil {
		pol = id.triage.String()
	}
	return fmt.Sprintf("schemes %s; triage %s; spec %s", strings.Join(id.schemes, ","), pol, cmp.Or(id.spec, "none"))
}

// Checkpoint appends completed trace results to a JSONL journal. It is
// safe for concurrent use by the campaign workers.
type Checkpoint struct {
	mu sync.Mutex
	f  *os.File
	// dirty marks that the previous append failed, so the file may end
	// in a torn partial record; the next append repairs the tail with a
	// newline first, or the new record would merge into the fragment and
	// both would be lost.
	dirty bool
}

// OpenCheckpointSpec opens (creating if needed) the journal at path
// for appending. A fresh (empty) journal gets a header line recording
// the schema version and the journal identity — the campaign's scheme
// set, the (normalized) triage policy of a tiered campaign (nil for
// none) and the compiled spec's hash — and the containing directory is
// fsynced so the file itself survives a crash. The hash covers the
// compiled manifest and campaign config, not the file's bytes, so
// reformatting a spec does not orphan its journals but changing what
// it runs does.
// An existing journal is appended to as-is (RunCampaign validates its
// header before opening), except that a missing final newline — a
// crash cut the last append short and no salvage ran — is repaired
// first so the next record cannot merge into the torn fragment.
func OpenCheckpointSpec(path string, schemes []string, pol *triage.Policy, spec string) (*Checkpoint, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	c := &Checkpoint{f: f}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	switch {
	case st.Size() == 0:
		if err := c.encode(checkpointEntry{
			Version: checkpointVersion,
			Header:  true,
			Schemes: sortedSchemes(schemes),
			Triage:  pol,
			Spec:    spec,
		}); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, err
		}
		// The rename-less analogue of "fsync the directory after an
		// atomic rename": creating the journal is only durable once its
		// directory entry is.
		if err := syncDir(filepath.Dir(path)); err != nil {
			f.Close()
			return nil, err
		}
	default:
		var last [1]byte
		if _, err := f.ReadAt(last[:], st.Size()-1); err != nil {
			f.Close()
			return nil, err
		}
		if last[0] != '\n' {
			if _, err := f.Write([]byte{'\n'}); err != nil {
				f.Close()
				return nil, err
			}
		}
	}
	return c, nil
}

// Append journals one completed trace under its manifest key and
// syncs, so the record survives a kill immediately after.
func (c *Checkpoint) Append(key string, r *TraceResult) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dirty {
		if _, err := c.f.Write([]byte{'\n'}); err != nil {
			return err
		}
		c.dirty = false
	}
	if err := c.encode(checkpointEntry{Version: checkpointVersion, Key: key, Result: r}); err != nil {
		// The record may have reached the disk partially; repair the
		// tail before any further append.
		c.dirty = true
		return err
	}
	return c.f.Sync()
}

// AppendDecision journals one triage decision and syncs. Decisions are
// appended when the tiered scheduler plans (before any escalation
// runs) and again when a dispatch-time budget demotes a trace; the
// loader keeps the latest record per key, so a superseding demotion
// wins on replay.
func (c *Checkpoint) AppendDecision(d triage.Decision) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dirty {
		if _, err := c.f.Write([]byte{'\n'}); err != nil {
			return err
		}
		c.dirty = false
	}
	if err := c.encode(checkpointEntry{Version: checkpointVersion, Decision: &d}); err != nil {
		c.dirty = true
		return err
	}
	return c.f.Sync()
}

// encode writes e as one JSON line, the bytes a json.Encoder writes. An
// Encoder keeps its first write error and returns it from every later
// Encode, so after one short write no append could succeed again.
func (c *Checkpoint) encode(e checkpointEntry) error {
	b, err := json.Marshal(e)
	if err != nil {
		return err
	}
	_, err = c.f.Write(append(b, '\n'))
	return err
}

// syncDir fsyncs a directory so a just-created or just-renamed entry
// in it survives a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Close closes the journal file.
func (c *Checkpoint) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.f.Close()
}

// Salvage describes what the loader recovered from around: interior
// lines it skipped as damaged, and a torn tail — an unterminated,
// unparsable final fragment, the on-disk signature of a kill
// mid-append. TornAt is the byte offset the fragment starts at, so the
// caller can truncate the journal back to its valid prefix before
// appending again.
type Salvage struct {
	Damaged  int   // complete interior lines that failed to parse
	TornTail bool  // the final line is an unterminated, unparsable fragment
	TornAt   int64 // byte offset of the torn fragment's first byte
}

// checkpointState is everything the loader recovers from a journal:
// the completed results, the header's identity, the journaled triage
// decisions (latest record per key), and a salvage report of any
// damage skipped over.
type checkpointState struct {
	results map[string]*TraceResult
	// id is the header's identity; nil when the journal has no header
	// line (an empty or missing file).
	id        *journalID
	decisions map[string]triage.Decision
	salvage   *Salvage
}

// loadCheckpointState reads a journal into a checkpointState. A
// missing file is an empty journal (a fresh campaign may pass -resume).
// Lines that do not parse as JSON — the signature of a crash
// mid-append — are skipped, not fatal: the campaign simply re-runs
// those traces. A line that parses but carries a different schema
// version (including a legacy pre-scheme-registry version-1 record)
// fails with an error wrapping ErrCheckpointVersion: silently dropping
// it would re-run the whole campaign while appending to a journal no
// old tool can read. A key appearing twice keeps the latest entry.
func loadCheckpointState(path string) (*checkpointState, error) {
	st := &checkpointState{
		results:   map[string]*TraceResult{},
		decisions: map[string]triage.Decision{},
		salvage:   &Salvage{},
	}
	f, err := os.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		return st, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rd := bufio.NewReaderSize(f, 64<<10)
	var offset int64
	for {
		lineStart := offset
		raw, rerr := rd.ReadBytes('\n')
		offset += int64(len(raw))
		terminated := rerr == nil
		if rerr != nil && rerr != io.EOF {
			return nil, fmt.Errorf("core: reading checkpoint %s: %w", path, rerr)
		}
		line := bytes.TrimSpace(raw)
		if len(line) > 0 {
			var e checkpointEntry
			if perr := json.Unmarshal(line, &e); perr != nil {
				if terminated {
					st.salvage.Damaged++
				} else {
					st.salvage.TornTail = true
					st.salvage.TornAt = lineStart
				}
			} else {
				if e.Version != checkpointVersion {
					return nil, fmt.Errorf("%w: %s has a version-%d line, this build writes version %d; start a fresh checkpoint or convert the journal",
						ErrCheckpointVersion, path, e.Version, checkpointVersion)
				}
				switch {
				case e.Header:
					st.id = &journalID{schemes: sortedSchemes(e.Schemes), triage: e.Triage, spec: e.Spec}
				case e.Key != "" && e.Result != nil:
					st.results[e.Key] = e.Result
				case e.Decision != nil && e.Decision.Key != "":
					st.decisions[e.Decision.Key] = *e.Decision
				}
			}
		}
		if rerr == io.EOF {
			break
		}
	}
	return st, nil
}
