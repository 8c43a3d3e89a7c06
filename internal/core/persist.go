package core

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// Results files let the §V study (cmd/tradeoff) and the §VI study
// (cmd/diffreport -predict) share one expensive suite run.

// resultsFile is the on-disk envelope.
type resultsFile struct {
	Version int            `json:"version"`
	Results []*TraceResult `json:"results"`
}

// resultsVersion 2 is the scheme-registry shape: TraceResult carries a
// flat Schemes map instead of the version-1 Model/ModelWall/Sims
// fields, so version-1 files are rejected rather than half-decoded.
const resultsVersion = 2

// SaveResults writes results as JSON.
func SaveResults(w io.Writer, rs []*TraceResult) error {
	enc := json.NewEncoder(w)
	return enc.Encode(resultsFile{Version: resultsVersion, Results: rs})
}

// LoadResults reads a results file written by SaveResults.
func LoadResults(r io.Reader) ([]*TraceResult, error) {
	var f resultsFile
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		return nil, fmt.Errorf("core: decoding results: %w", err)
	}
	if f.Version != resultsVersion {
		return nil, fmt.Errorf("core: results version %d, want %d", f.Version, resultsVersion)
	}
	return f.Results, nil
}

// SaveResultsFile writes results to path atomically: the JSON goes to
// a temp file in the same directory, is synced, and is renamed over
// path, then the directory is fsynced — without that last step the
// rename itself can be lost to a crash, so a crash mid-write can never
// corrupt or silently drop an existing results file (the expensive
// artifact of a multi-hour campaign).
func SaveResultsFile(path string, rs []*TraceResult) (err error) {
	if err = failResultsSave.Fail(); err != nil {
		return err
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if err = SaveResults(tmp, rs); err != nil {
		return err
	}
	if err = tmp.Sync(); err != nil {
		return err
	}
	if err = tmp.Close(); err != nil {
		return err
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	return syncDir(dir)
}

// LoadResultsFile reads results from path.
func LoadResultsFile(path string) ([]*TraceResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadResults(f)
}

// triageReportFile is the on-disk envelope for a tiered campaign's
// decision report (cmd/tradeoff -save writes it next to the results;
// cmd/diffreport -triage reads it back).
type triageReportFile struct {
	Version int           `json:"version"`
	Triage  *TriageReport `json:"triage"`
}

// triageReportVersion 1 is the first shape.
const triageReportVersion = 1

// SaveTriageReport writes a tiered campaign's report to path with the
// same atomic write-sync-rename protocol as SaveResultsFile.
func SaveTriageReport(path string, t *TriageReport) (err error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	enc := json.NewEncoder(tmp)
	enc.SetIndent("", "  ")
	if err = enc.Encode(triageReportFile{Version: triageReportVersion, Triage: t}); err != nil {
		return err
	}
	if err = tmp.Sync(); err != nil {
		return err
	}
	if err = tmp.Close(); err != nil {
		return err
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	return syncDir(dir)
}

// LoadTriageReport reads a report written by SaveTriageReport.
func LoadTriageReport(path string) (*TriageReport, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var tf triageReportFile
	if err := json.NewDecoder(f).Decode(&tf); err != nil {
		return nil, fmt.Errorf("core: decoding triage report: %w", err)
	}
	if tf.Version != triageReportVersion || tf.Triage == nil {
		return nil, fmt.Errorf("core: triage report version %d, want %d", tf.Version, triageReportVersion)
	}
	return tf.Triage, nil
}
