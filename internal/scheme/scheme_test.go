package scheme_test

import (
	"reflect"
	"strings"
	"testing"

	"hpctradeoff/internal/machine"
	"hpctradeoff/internal/scheme"
	"hpctradeoff/internal/workload"
)

// The four built-in schemes sit in the table in the paper's reporting
// order; this order is the campaign's deterministic iteration order.
func TestBuiltinRegistrationOrder(t *testing.T) {
	want := []string{scheme.MFACT, scheme.Packet, scheme.Flow, scheme.PacketFlow}
	if got := scheme.Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	all := scheme.All()
	if len(all) != len(want) {
		t.Fatalf("All() has %d schemes, want %d", len(all), len(want))
	}
	for i, s := range all {
		if s.Name() != want[i] {
			t.Errorf("All()[%d].Name() = %q, want %q", i, s.Name(), want[i])
		}
		kind := scheme.KindSimulation
		if i == 0 {
			kind = scheme.KindModel
		}
		if s.Kind() != kind {
			t.Errorf("%s is a %s, want a %s", s.Name(), s.Kind(), kind)
		}
	}
}

func TestResolve(t *testing.T) {
	all, err := scheme.Resolve(nil)
	if err != nil || len(all) != len(scheme.Names()) {
		t.Fatalf("Resolve(nil) = %d schemes, err %v", len(all), err)
	}
	subset, err := scheme.Resolve([]string{scheme.Packet, scheme.MFACT})
	if err != nil {
		t.Fatal(err)
	}
	if len(subset) != 2 || subset[0].Name() != scheme.Packet || subset[1].Name() != scheme.MFACT {
		t.Fatalf("Resolve preserves selection order: got %v", subset)
	}
	_, err = scheme.Resolve([]string{scheme.MFACT, "warp-drive"})
	if err == nil {
		t.Fatal("unknown scheme accepted")
	}
	if msg := err.Error(); !strings.Contains(msg, `"warp-drive"`) || !strings.Contains(msg, "mfact, packet, flow, packetflow") {
		t.Errorf("unknown-scheme error %q does not name the scheme and the valid choices", msg)
	}
}

func TestParseList(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"", nil},
		{" , ,", nil},
		{"mfact", []string{"mfact"}},
		{"mfact, packet ,flow", []string{"mfact", "packet", "flow"}},
	}
	for _, c := range cases {
		if got := scheme.ParseList(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("ParseList(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

// Session results must be bit-identical to the stateless Run — across
// repeated traces, so recycled arenas and free lists are proven to
// carry no state between replays.
func TestSessionBitIdenticalToRun(t *testing.T) {
	ps := []workload.Params{
		{App: "CG", Class: "S", Ranks: 8, Machine: "edison", Seed: 61},
		{App: "FT", Class: "S", Ranks: 8, Machine: "hopper", Seed: 62},
		{App: "CG", Class: "S", Ranks: 8, Machine: "edison", Seed: 61}, // repeat: reuse paths
	}
	for _, s := range scheme.All() {
		name := s.Name()
		sess := s.NewSession()
		for i, p := range ps {
			cols, err := workload.MaterializeColumns(p)
			if err != nil {
				t.Fatal(err)
			}
			mach, err := machine.New(p.Machine, p.Ranks, p.RanksPerNode)
			if err != nil {
				t.Fatal(err)
			}
			want, werr := s.Run(cols, mach, scheme.Options{})
			got, gerr := sess.Run(cols, mach, scheme.Options{})
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("%s trace %d: Run err %v, Session err %v", name, i, werr, gerr)
			}
			// Wall clocks differ run to run; every predicted quantity may not.
			want.Wall, got.Wall = 0, 0
			wm, gm := want.Model, got.Model
			want.Model, got.Model = nil, nil
			if want != got {
				t.Fatalf("%s trace %d: Session diverged:\ngot  %+v\nwant %+v", name, i, got, want)
			}
			if (wm == nil) != (gm == nil) {
				t.Fatalf("%s trace %d: model presence differs", name, i)
			}
			if wm != nil {
				if gm.Events != wm.Events || gm.Class != wm.Class {
					t.Fatalf("%s trace %d: model events/class differ", name, i)
				}
				if !reflect.DeepEqual(gm.Totals, wm.Totals) || !reflect.DeepEqual(gm.Comms, wm.Comms) {
					t.Fatalf("%s trace %d: model sweep differs", name, i)
				}
			}
		}
	}
}
