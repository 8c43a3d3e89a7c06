package core

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hpctradeoff/internal/triage"
)

// FuzzCheckpointLoader throws arbitrary bytes at the JSONL checkpoint
// loader. The journal is the one file the campaign both writes under
// concurrency and re-reads after a crash, so the loader must treat any
// on-disk state — truncated lines, interleaved garbage, binary junk —
// as survivable damage, while refusing loudly (never silently) journals
// from a different schema version:
//
//   - loadCheckpoint never panics; it either returns a non-nil map or
//     one of the two sanctioned errors (ErrCheckpointVersion for a
//     parseable line of another schema version, or the scanner's
//     token-too-long for lines beyond the 64 MB buffer);
//   - every loaded entry has a non-empty key and non-nil result;
//   - when the journal loads cleanly, a valid entry appended after the
//     damage (on its own line, as a post-crash append would be) is
//     always recovered.
//
// The committed seed corpus in testdata/fuzz/FuzzCheckpointLoader
// pins the interesting shapes — including legacy version-1 records
// from before the scheme registry — and runs as part of plain
// `go test`.
func FuzzCheckpointLoader(f *testing.F) {
	valid, err := json.Marshal(checkpointEntry{
		Version: checkpointVersion,
		Key:     "CG.A.x64.cielito.n0.s1.i0",
		Result:  &TraceResult{ID: "CG.A.x64.cielito", Events: 42},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte(nil))
	f.Add(valid)
	f.Add(append(append([]byte{}, valid...), '\n'))
	f.Add(valid[:len(valid)/2])                                                                                                       // crash mid-append
	f.Add([]byte("{\"version\":999,\"key\":\"k\",\"result\":{}}\n"))                                                                  // future version
	f.Add([]byte(`{"version":1,"key":"CG.A.x64.cielito.n0.s1.i0","result":{"ID":"CG.A.x64.cielito","Model":null,"Sims":{}}}` + "\n")) // legacy pre-registry record
	f.Add([]byte(`{"version":3,"header":true,"schemes":["mfact","packet"]}` + "\n"))                                                  // bare header
	f.Add([]byte("not json at all\n{\"version\":2}\n\n"))
	f.Add([]byte{0x00, 0xff, 0xfe, '\n', '{', '}'})

	// Checkpoint v3 shapes: triage decision records and the policy
	// header that gates resume.
	decision, err := json.Marshal(checkpointEntry{
		Version:  checkpointVersion,
		Decision: &triage.Decision{Key: "CG.A.x64.cielito.n0.s1.i0", Score: 0.73, Escalate: true, Reason: triage.ReasonFlagged},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(append(append([]byte{}, decision...), '\n'))                                                                                                     // valid decision record
	f.Add(decision[:len(decision)/2])                                                                                                                      // torn decision (crash mid-append)
	f.Add([]byte(`{"version":2,"key":"CG.A.x64.cielito.n0.s1.i0","result":{"ID":"CG.A.x64.cielito"}}` + "\n"))                                             // legacy v2 (pre-triage) record
	f.Add([]byte(`{"version":3,"header":true,"schemes":["mfact","packet"],"triage":{"threshold":0.5,"calibration":16,"cv_runs":50,"max_vars":5}}` + "\n")) // triage header (policy-mismatch gate input)
	f.Add([]byte(`{"version":3,"decision":{"key":"","reason":"flagged"}}` + "\n"))                                                                         // decision with empty key: skipped, not loaded

	// acceptable reports whether err is one of the loader's two
	// sanctioned failure modes.
	acceptable := func(err error) bool {
		return errors.Is(err, ErrCheckpointVersion) ||
			strings.Contains(err.Error(), "token too long")
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "campaign.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := loadCheckpoint(path)
		if err != nil {
			if !acceptable(err) {
				t.Fatalf("loadCheckpoint(%q...): %v", truncateForLog(data), err)
			}
			// A journal that fails the version gate (or the scanner) keeps
			// failing after appends; the recovery invariant does not apply.
			return
		}
		if m == nil {
			t.Fatal("loadCheckpoint returned nil map without error")
		}
		for k, v := range m {
			if k == "" {
				t.Fatal("loaded an entry with empty key")
			}
			if v == nil {
				t.Fatalf("loaded nil result under key %q", k)
			}
		}

		// Recovery: append one valid entry on a fresh line after the
		// damage; the loader must find it regardless of what precedes.
		probe := append([]byte{'\n'}, valid...)
		probe = append(probe, '\n')
		fh, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fh.Write(probe); err != nil {
			fh.Close()
			t.Fatal(err)
		}
		fh.Close()
		m2, err := loadCheckpoint(path)
		if err != nil {
			if !acceptable(err) {
				t.Fatalf("reload after append: %v", err)
			}
			return
		}
		r, ok := m2["CG.A.x64.cielito.n0.s1.i0"]
		if !ok || r == nil {
			t.Fatalf("valid appended entry lost among %d loaded entries", len(m2))
		}
		if r.Events != 42 || r.ID != "CG.A.x64.cielito" {
			t.Fatalf("appended entry corrupted on load: %+v", r)
		}
	})
}

func truncateForLog(b []byte) []byte {
	if len(b) > 120 {
		return b[:120]
	}
	return b
}
