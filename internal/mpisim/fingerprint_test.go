package mpisim_test

import (
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hpctradeoff/internal/machine"
	"hpctradeoff/internal/mpisim"
	"hpctradeoff/internal/simnet"
	"hpctradeoff/internal/simtime"
	"hpctradeoff/internal/trace"
	"hpctradeoff/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the testdata fixtures (replay_fingerprints.txt, program_bytes.txt) instead of comparing")

const fingerprintFile = "testdata/replay_fingerprints.txt"

// fingerprintCase is one replay whose outcome the fixture pins.
type fingerprintCase struct {
	name  string
	p     workload.Params
	model simnet.Model
	// record replays as the ground-truth stamper does: DefaultNoise and
	// Record, hashing the written-back entry/exit times too.
	record bool
	bg     *mpisim.Background
	// eagerLimit, when set, replaces the machine's eager threshold (-1
	// makes every non-empty message rendezvous).
	eagerLimit int64
}

func fingerprintCases() []fingerprintCase {
	var out []fingerprintCase
	add := func(tag string, p workload.Params, bg *mpisim.Background, eager int64) {
		for _, m := range simnet.Models() {
			for _, record := range []bool{false, true} {
				mode := "predict"
				if record {
					mode = "stamp"
				}
				name := fmt.Sprintf("%s.%s.%d.%s%s %s %s", p.App, p.Class, p.Ranks, p.Machine, tag, m, mode)
				out = append(out, fingerprintCase{name: name, p: p, model: m, record: record, bg: bg, eagerLimit: eager})
			}
		}
	}
	machines := []string{"cielito", "hopper", "edison"}
	for i, app := range workload.Apps() {
		ranks := []int{16, 32, 64}[i%3]
		add("", workload.Params{App: app, Class: "S", Ranks: ranks, Machine: machines[i%3], Seed: int64(900 + i)}, nil, 0)
	}
	lu := workload.Params{App: "LU", Class: "A", Ranks: 32, Machine: "hopper", Seed: 77}
	add("+background", lu, &mpisim.Background{Sources: 4, MsgBytes: 24 << 10, Interval: 30 * simtime.Microsecond, Seed: 3}, 0)
	add("+rendezvous", lu, nil, -1)
	return out
}

// fingerprint replays c and hashes what a replay promises to keep:
// the per-rank finish and communication times, the totals, the event
// count, and (when recording) every stamped entry and exit time.
func fingerprint(t *testing.T, c fingerprintCase) string {
	t.Helper()
	cols, err := workload.GenerateColumns(c.p)
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	mach, err := machine.New(c.p.Machine, c.p.Ranks, 4)
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	if c.eagerLimit != 0 {
		mach.EagerThreshold = max(c.eagerLimit, 0)
	}
	opts := mpisim.Options{Background: c.bg}
	if c.record {
		opts.Perturb, opts.Record = mpisim.DefaultNoise(c.p.Seed, c.p.Ranks), true
	}
	res, err := mpisim.Replay(cols, c.model, mach, simnet.Config{}, opts)
	if err != nil {
		if strings.Contains(err.Error(), simnet.ErrUnsupportedTrace.Error()) {
			return "unsupported"
		}
		t.Fatalf("%s: %v", c.name, err)
	}
	h := fnv.New64a()
	put := func(v int64) { _ = binary.Write(h, binary.LittleEndian, v) }
	times := func(ts []simtime.Time) {
		put(int64(len(ts)))
		for _, x := range ts {
			put(int64(x))
		}
	}
	times(res.RankFinish)
	times(res.RankComm)
	put(int64(res.Total))
	put(int64(res.Comm))
	put(int64(res.Events))
	if c.record {
		var e trace.Event
		for r := 0; r < cols.NumRanks(); r++ {
			for i := 0; i < cols.RankLen(r); i++ {
				cols.EventAt(r, i, &e)
				put(int64(e.Entry))
				put(int64(e.Exit))
			}
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestReplayFingerprints holds every replay to the fixture: 18
// generators at 16–64 ranks on all three network models, each as a
// prediction and as the noisy recording stamper, plus background
// traffic and all-rendezvous cases. A change to the replay's event
// handling that claims bit-identity must leave every line as it is.
func TestReplayFingerprints(t *testing.T) {
	var got strings.Builder
	for _, c := range fingerprintCases() {
		fmt.Fprintf(&got, "%s %s\n", c.name, fingerprint(t, c))
	}
	path := filepath.FromSlash(fingerprintFile)
	if *update {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with go test -run TestReplayFingerprints -update)", err)
	}
	wantLines := strings.Split(strings.TrimSpace(string(want)), "\n")
	gotLines := strings.Split(strings.TrimSpace(got.String()), "\n")
	if len(wantLines) != len(gotLines) {
		t.Fatalf("%d fingerprints, fixture has %d", len(gotLines), len(wantLines))
	}
	for i := range wantLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("fingerprint changed:\n got %s\nwant %s", gotLines[i], wantLines[i])
		}
	}
}
