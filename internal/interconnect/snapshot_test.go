package interconnect

import (
	"bytes"
	"encoding/hex"
	"testing"

	"dstore/internal/sim"
	"dstore/internal/snap"
)

// crossbarGolden is the snapshot of the traffic in xbarGoldenTraffic as
// written when the crossbar kept its ports in name-keyed maps: per
// direction, the count of ports that carried a message, then (name,
// free tick) in name order. Warm-prefix snapshots already in a store
// were written in this format, so the dense-port crossbar must keep it.
const crossbarGolden = "" +
	"d50400000078626172040000007862617205000000030000006370750d0000000000000003000000646d610800000000" +
	"000000090000006770752e6c322e73300e00000000000000090000006770752e6c322e73310500000000000000030000" +
	"006d656d010000000000000004000000030000006370750500000000000000090000006770752e6c322e73300e000000" +
	"00000000090000006770752e6c322e73310100000000000000030000006d656d0500000000000000d505000000737461" +
	"747302000000080000006d6573736167657306000000000000000500000062797465733002000000000000"

// xbarGoldenTraffic registers the ports in an order unrelated to their
// names, plus one that never carries a message, then sends: "dma" only
// injects, and one message goes from a port to itself.
func xbarGoldenTraffic(e *sim.Engine) *Crossbar {
	x := NewCrossbar(e, "xbar", 16, 32)
	x.Port("zz.idle")
	mem, s1, cpu := x.Port("mem"), x.Port("gpu.l2.s1"), x.Port("cpu")
	x.Send(mem, s1, CtrlMsgBytes, nil, nil)
	x.Send(cpu, mem, DataMsgBytes, nil, nil)
	x.Send(s1, cpu, DataMsgBytes, nil, nil)
	e.Schedule(3, func() {})
	e.Run()
	s0 := x.Port("gpu.l2.s0")
	x.Send(x.Port("dma"), s0, DataMsgBytes, nil, nil)
	x.Send(cpu, s0, DataMsgBytes, nil, nil)
	x.Send(s0, s0, CtrlMsgBytes, nil, nil)
	return x
}

func xbarSnapshot(x *Crossbar) []byte {
	var w snap.Writer
	x.SnapshotTo(&w)
	return w.Bytes()
}

func TestCrossbarSnapshotGoldenBytes(t *testing.T) {
	got := hex.EncodeToString(xbarSnapshot(xbarGoldenTraffic(sim.NewEngine())))
	if got != crossbarGolden {
		t.Fatalf("crossbar snapshot stream changed:\n got %s\nwant %s", got, crossbarGolden)
	}
}

// TestCrossbarRestoreContinues restores the golden stream into a fresh
// crossbar whose ports are registered in yet another order: it must
// re-serialise to the same bytes and arbitrate the next message as the
// original does.
func TestCrossbarRestoreContinues(t *testing.T) {
	golden, err := hex.DecodeString(crossbarGolden)
	if err != nil {
		t.Fatal(err)
	}
	e := sim.NewEngine()
	orig := xbarGoldenTraffic(e)

	fresh := NewCrossbar(sim.NewEngine(), "xbar", 16, 32)
	fresh.Port("cpu")
	fresh.Port("gpu.l2.s0")
	r := snap.NewReader(golden)
	fresh.RestoreFrom(r)
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(xbarSnapshot(fresh), golden) {
		t.Fatal("restored crossbar re-serialises differently")
	}
	fresh.engine = e // same clock as the original
	a := orig.Send(orig.Port("cpu"), orig.Port("gpu.l2.s0"), DataMsgBytes, nil, nil)
	b := fresh.Send(fresh.Port("cpu"), fresh.Port("gpu.l2.s0"), DataMsgBytes, nil, nil)
	if a != b {
		t.Errorf("next message arrives at %d after restore, %d uninterrupted", b, a)
	}
}
