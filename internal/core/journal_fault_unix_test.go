//go:build unix

package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
)

// The journal and results tests in this file write under a file-size
// limit (RLIMIT_FSIZE, what `ulimit -f` sets), so a write really comes
// up short and then fails with EFBIG, the way it does on a full disk.
// The limit is set in a child process — this test binary re-executed
// with fsizeChildArg — never in the test process itself; each test
// waits for its child.
const fsizeChildArg = "core-fsize-child"

func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == fsizeChildArg {
		os.Exit(fsizeChild(os.Args[2:]))
	}
	os.Exit(m.Run())
}

// repairFixture is the record whose append the tail-repair test cuts
// short; parent and child both encode it.
var repairFixture = &TraceResult{ID: "a", Measured: 1}

// fsizeChild runs one write scenario under a file-size limit of
// args[1] bytes and prints one outcome line per write (see outcome).
// args: mode, limit, path.
func fsizeChild(args []string) int {
	if len(args) != 3 {
		fmt.Fprintln(os.Stderr, "usage:", fsizeChildArg, "append|campaign|save LIMIT PATH")
		return 2
	}
	mode, path := args[0], args[2]
	limit, err := strconv.ParseUint(args[1], 10, 64)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	var lim syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &lim); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &syscall.Rlimit{Cur: limit, Max: lim.Max}); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	switch mode {
	case "append":
		// The first append hits the limit mid-record; then the space
		// comes back (the limit is lifted) and the second must land on
		// a line of its own.
		ck, err := OpenCheckpointSpec(path, []string{"mfact"}, nil, "")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		fmt.Println(outcome(ck.Append("a", repairFixture)))
		if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &lim); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		fmt.Println(outcome(ck.Append("b", &TraceResult{ID: "b", Measured: 2})))
		ck.Close()
	case "campaign":
		_, _, err := RunCampaign(smallParams("EP", "IS"), CampaignConfig{
			Workers:        1,
			Schemes:        []string{"mfact"},
			KeepGoing:      true,
			CheckpointPath: path,
		})
		fmt.Println(outcome(err))
	case "save":
		fmt.Println(outcome(SaveResultsFile(path, []*TraceResult{{ID: "clobber"}})))
	default:
		fmt.Fprintln(os.Stderr, "unknown mode", mode)
		return 2
	}
	// Lift the limit before exiting, so whatever the process writes on
	// its way out (a coverage profile) is not cut short.
	syscall.Setrlimit(syscall.RLIMIT_FSIZE, &lim)
	return 0
}

// outcome renders a write's result for the parent: "ok", "efbig" for
// a write refused at the size limit, or the error text.
func outcome(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, syscall.EFBIG):
		return "efbig"
	default:
		return "error: " + err.Error()
	}
}

// runFsizeChild runs scenario mode in a child process under a limit of
// limit bytes and returns its outcome lines.
func runFsizeChild(t *testing.T, mode string, limit int64, path string) []string {
	t.Helper()
	cmd := exec.Command(os.Args[0], fsizeChildArg, mode, strconv.FormatInt(limit, 10), path)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("%s child: %v\n%s", mode, err, stderr.String())
	}
	return strings.Fields(string(out))
}

// Within one campaign process, an append that fails partway (a short
// write at a full disk) must not corrupt the NEXT append once space is
// back: the journal repairs its tail before writing again, so the later
// record survives even though the torn one is lost.
func TestCheckpointRepairsTailAfterFailedAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	ck, err := OpenCheckpointSpec(path, []string{"mfact"}, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	ck.Close()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := json.Marshal(checkpointEntry{Version: checkpointVersion, Key: "a", Result: repairFixture})
	if err != nil {
		t.Fatal(err)
	}
	// Room for half of record a.
	got := runFsizeChild(t, "append", st.Size()+int64(len(rec))/2, path)
	if len(got) != 2 || got[0] != "efbig" || got[1] != "ok" {
		t.Fatalf("appends under the limit = %v, want [efbig ok]", got)
	}

	recs, _, sal, err := loadCheckpointFull(path)
	if err != nil {
		t.Fatal(err)
	}
	if recs["b"] == nil {
		t.Fatal("record after the torn append was lost to a tail merge")
	}
	if sal.Damaged != 1 {
		t.Errorf("Damaged = %d, want 1 (the torn fragment, newline-terminated by the repair)", sal.Damaged)
	}
}

// A journal write that fails (a full disk) is an infrastructure
// failure: the campaign stops rather than running on without
// durability, and the torn journal it leaves resumes cleanly.
func TestCheckpointSyncFailureStopsCampaign(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	// Room for the header line, not for the first record.
	const limit = 256
	if got := runFsizeChild(t, "campaign", limit, path); len(got) != 1 || got[0] != "efbig" {
		t.Fatalf("campaign under a full disk returned %v, want an EFBIG journal failure", got)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != limit {
		t.Fatalf("journal is %d bytes, want %d: the first record cut off at the limit", st.Size(), limit)
	}

	var warns []string
	rs, rep, err := RunCampaign(smallParams("EP", "IS"), CampaignConfig{
		Workers:        1,
		Schemes:        []string{"mfact"},
		KeepGoing:      true,
		CheckpointPath: path,
		Resume:         true,
		Warnf:          func(f string, a ...any) { warns = append(warns, fmt.Sprintf(f, a...)) },
	})
	if err != nil {
		t.Fatalf("resume after the full disk: %v", err)
	}
	if rep.Succeeded != len(rs) || rep.Skipped != 0 {
		t.Errorf("resume report = %+v, want every trace re-run", rep)
	}
	if !strings.Contains(strings.Join(warns, "\n"), "torn") {
		t.Errorf("no salvage warning on resume: %v", warns)
	}
}

// A results save that fails — the disk fills while the temp file is
// written, or the path cannot exist — fails cleanly: no temp droppings,
// no clobbered previous file.
func TestResultsSaveFailpoint(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "results.json")
	if err := SaveResultsFile(path, []*TraceResult{{ID: "keep"}}); err != nil {
		t.Fatal(err)
	}
	if got := runFsizeChild(t, "save", 16, path); len(got) != 1 || got[0] != "efbig" {
		t.Fatalf("save under a full disk returned %v, want efbig", got)
	}
	// A results path whose parent is a regular file.
	if err := SaveResultsFile(filepath.Join(path, "nested.json"), []*TraceResult{{ID: "clobber"}}); !errors.Is(err, syscall.ENOTDIR) {
		t.Fatalf("save under a regular file: err = %v, want ENOTDIR", err)
	}

	got, err := LoadResultsFile(path)
	if err != nil || len(got) != 1 || got[0].ID != "keep" {
		t.Fatalf("previous results clobbered by failed save: %v %v", got, err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		names := make([]string, len(ents))
		for i, e := range ents {
			names[i] = e.Name()
		}
		t.Errorf("failed saves left files behind: %v", names)
	}
}
