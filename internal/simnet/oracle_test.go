package simnet

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"hpctradeoff/internal/des"
	"hpctradeoff/internal/machine"
	"hpctradeoff/internal/simtime"
)

// TestPacketSingleMessageClosedForm holds the packet model to an oracle
// it does not itself contain. One message of n full packets crosses an
// idle network from t0 over a route of h links, where link j serializes
// a packet in T_j. The links form a tandem of deterministic FIFO
// stations, so max-plus algebra gives the delivery time in closed form:
//
//	t0 + 2·NICLatency + Σ_j T_j + (n−1)·max_j T_j + h·LinkLatency
//
// (NIC in and out, the first packet's pipeline, then one packet per
// bottleneck service time). Every packet makes h hop events plus one
// arrival event, and the delivery callback is one more, so the run
// executes exactly n·(h+1) + 1 events. Both must match exactly.
//
// The engine pops fewer: the n first hops run as one pop, and of the n
// arrivals only the latest is queued, so exactly n·(h−1) + 3 events
// are popped.
func TestPacketSingleMessageClosedForm(t *testing.T) {
	pairs := [][2]int32{{0, 95}, {3, 47}, {30, 64}, {95, 1}}
	for _, name := range []string{"cielito", "hopper", "edison"} {
		mach, err := machine.New(name, 96, 0)
		if err != nil {
			t.Fatal(err)
		}
		bw := linkBandwidths(mach)
		pkt := Config{}.withDefaults(Packet).PacketBytes
		for _, pr := range pairs {
			src, dst := pr[0], pr[1]
			srcNode, dstNode := mach.NodeOf[src], mach.NodeOf[dst]
			if srcNode == dstNode {
				t.Fatalf("%s: ranks %d and %d share node %d; the oracle needs a cross-node pair", name, src, dst, srcNode)
			}
			path := mach.Topo.Route(nil, int(srcNode), int(dstNode))
			h := len(path)
			var sum, bottleneck simtime.Time
			for _, l := range path {
				tj := simtime.TransferTime(pkt, bw[l])
				sum += tj
				bottleneck = simtime.Max(bottleneck, tj)
			}
			for _, n := range []int64{1, 2, 7, 64} {
				t.Run(fmt.Sprintf("%s/%d-%d/n=%d", name, src, dst, n), func(t *testing.T) {
					t0 := simtime.Time(n) * 3 * simtime.Microsecond
					got, events, popped := sendOneAt(t, mach, t0, src, dst, n*pkt)
					want := t0 + 2*mach.NICLatency + sum + simtime.Time(n-1)*bottleneck + simtime.Time(h)*mach.LinkLatency
					if got != want {
						t.Errorf("delivered at %v, closed form says %v (h=%d, Σ=%v, max=%v)", got, want, h, sum, bottleneck)
					}
					if wantEvents := uint64(n)*uint64(h+1) + 1; events != wantEvents {
						t.Errorf("%d events, closed form says n·(h+1)+1 = %d", events, wantEvents)
					}
					if wantPopped := uint64(n)*uint64(h-1) + 3; popped != wantPopped {
						t.Errorf("%d events popped, closed form says n·(h−1)+3 = %d", popped, wantPopped)
					}
				})
			}
		}
	}

	// Loopback: a same-node message never enters the network. It lands
	// one NIC latency plus a memcpy later, in a single event.
	t.Run("cielito/loopback", func(t *testing.T) {
		mach, err := machine.New("cielito", 96, 0)
		if err != nil {
			t.Fatal(err)
		}
		if mach.NodeOf[0] != mach.NodeOf[1] {
			t.Fatal("ranks 0 and 1 are expected to share a node")
		}
		const bytes = 7 << 10
		t0 := 5 * simtime.Microsecond
		got, events, popped := sendOneAt(t, mach, t0, 0, 1, bytes)
		cfg := Config{}.withDefaults(Packet)
		if want := t0 + mach.NICLatency + simtime.TransferTime(bytes, cfg.LoopbackBandwidth); got != want {
			t.Errorf("delivered at %v, want %v", got, want)
		}
		if events != 1 || popped != 1 {
			t.Errorf("%d events (%d popped), want 1", events, popped)
		}
	})
}

// sendOneAt sends one message on an idle packet network at t0 and
// returns its delivery time and the events the engine executed and
// popped from the send on.
func sendOneAt(t *testing.T, mach *machine.Config, t0 simtime.Time, src, dst int32, bytes int64) (simtime.Time, uint64, uint64) {
	t.Helper()
	var eng des.Engine
	net, err := New(Packet, &eng, mach, Config{})
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(t0) // empty queue: only advances the clock
	var at simtime.Time
	delivered := 0
	net.Send(src, dst, bytes, func() {
		delivered++
		at = eng.Now()
	})
	eng.Run()
	if delivered != 1 {
		t.Fatalf("delivered %d times, want once", delivered)
	}
	return at, eng.Steps(), eng.Popped()
}

// diffMsg is one message of a staggered cross-node traffic pattern.
type diffMsg struct {
	at       simtime.Time
	src, dst int32
	bytes    int64
}

// diffTraffic has every rank send one message, staggered in time and
// distinct in size, to (rank*7+5) mod n on another node.
func diffTraffic(mach *machine.Config, n int) []diffMsg {
	var out []diffMsg
	for r := 0; r < n; r++ {
		d := (r*7 + 5) % n
		if d == r || mach.NodeOf[r] == mach.NodeOf[d] {
			continue
		}
		out = append(out, diffMsg{
			at:    simtime.Time(r) * 5 * simtime.Microsecond,
			src:   int32(r),
			dst:   int32(d),
			bytes: 48<<10 + int64(r)<<10,
		})
	}
	return out
}

// delivery is one message delivery of a packet-model run: its time,
// and the engine's pop that delivered it.
type delivery struct {
	at  simtime.Time
	pop uint64
}

// runSequentialPacket replays traffic on the packet model under a
// budget and returns the deliveries in delivery order, the events the
// engine popped, and its error.
func runSequentialPacket(t *testing.T, mach *machine.Config, traffic []diffMsg, b des.Budget) ([]delivery, uint64, error) {
	t.Helper()
	var eng des.Engine
	eng.SetBudget(b)
	net, err := New(Packet, &eng, mach, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var delivered []delivery
	for _, m := range traffic {
		eng.At(m.at, func() {
			net.Send(m.src, m.dst, m.bytes, func() {
				delivered = append(delivered, delivery{eng.Now(), eng.Popped()})
			})
		})
	}
	eng.Run()
	return delivered, eng.Popped(), eng.Err()
}

// TestDifferentialBudgetHalt runs the same workload complete and under
// an event budget that halts it midway. The halted run must report the
// typed budget error and have executed exactly the complete run's
// prefix up to the halt: the same deliveries, at the same times and
// pops, in the same order, and none of the complete run's later ones.
func TestDifferentialBudgetHalt(t *testing.T) {
	mach, err := machine.Hopper(64, 4)
	if err != nil {
		t.Fatal(err)
	}
	traffic := diffTraffic(mach, 64)
	if len(traffic) < 32 {
		t.Fatalf("degenerate traffic pattern: %d messages", len(traffic))
	}
	full, fullPops, err := runSequentialPacket(t, mach, traffic, des.Budget{})
	if err != nil {
		t.Fatalf("complete run failed: %v", err)
	}
	if len(full) != len(traffic) {
		t.Fatalf("complete run delivered %d of %d", len(full), len(traffic))
	}
	// Cap the logical events at half the run's pops: packet keying and
	// batching make the run's logical count larger still, so the cap
	// falls well inside it.
	halted, pops, err := runSequentialPacket(t, mach, traffic, des.Budget{MaxEvents: fullPops / 2})
	if !errors.Is(err, des.ErrBudgetExceeded) {
		t.Fatalf("budgeted run err = %v, want ErrBudgetExceeded", err)
	}
	if pops >= fullPops {
		t.Fatalf("budgeted run popped %d events, the complete run %d", pops, fullPops)
	}
	var prefix []delivery
	for _, d := range full {
		if d.pop <= pops {
			prefix = append(prefix, d)
		}
	}
	if len(prefix) == len(full) || len(prefix) == 0 {
		t.Fatalf("budget did not cut mid-run: %d of %d deliveries by pop %d", len(prefix), len(full), pops)
	}
	if !slices.Equal(halted, prefix) {
		t.Errorf("halted run delivered %v, the complete run's prefix to pop %d is %v", halted, pops, prefix)
	}
}
