package interconnect

import (
	"testing"
	"testing/quick"

	"dstore/internal/sim"
)

func TestLinkPureLatency(t *testing.T) {
	e := sim.NewEngine()
	l := NewLink(e, "l", 10, 0)
	var at sim.Tick
	arr := l.Send(CtrlMsgBytes, func(_ any, now sim.Tick) { at = now }, nil)
	e.Run()
	if arr != 10 || at != 10 {
		t.Errorf("arrival %d/%d, want 10", arr, at)
	}
}

func TestLinkSerialisation(t *testing.T) {
	e := sim.NewEngine()
	l := NewLink(e, "l", 10, 16) // 136B message → 9 ticks occupancy
	arr := l.Send(DataMsgBytes, nil, nil)
	if arr != 9+10 {
		t.Errorf("arrival %d, want 19", arr)
	}
}

func TestLinkBackToBackQueues(t *testing.T) {
	e := sim.NewEngine()
	l := NewLink(e, "l", 5, 8) // ctrl msg → 1 tick occupancy
	a1 := l.Send(CtrlMsgBytes, nil, nil)
	a2 := l.Send(CtrlMsgBytes, nil, nil)
	if a1 != 6 {
		t.Errorf("first arrival %d, want 6", a1)
	}
	if a2 != 7 {
		t.Errorf("second arrival %d, want 7 (queued behind first)", a2)
	}
}

func TestLinkCountsTraffic(t *testing.T) {
	e := sim.NewEngine()
	l := NewLink(e, "l", 1, 0)
	l.Send(CtrlMsgBytes, nil, nil)
	l.Send(DataMsgBytes, nil, nil)
	if l.Counters().Get("messages") != 2 {
		t.Error("message count wrong")
	}
	if l.Counters().Get("bytes") != CtrlMsgBytes+DataMsgBytes {
		t.Error("byte count wrong")
	}
}

func TestLinkZeroSizePanics(t *testing.T) {
	e := sim.NewEngine()
	l := NewLink(e, "l", 1, 0)
	defer func() {
		if recover() == nil {
			t.Error("zero-size send did not panic")
		}
	}()
	l.Send(0, nil, nil)
}

func TestCrossbarLatency(t *testing.T) {
	e := sim.NewEngine()
	x := NewCrossbar(e, "x", 12, 0)
	var at sim.Tick
	x.Send(x.Port("a"), x.Port("b"), CtrlMsgBytes, func(_ any, now sim.Tick) { at = now }, nil)
	e.Run()
	if at != 12 {
		t.Errorf("arrival %d, want 12", at)
	}
}

func TestCrossbarDistinctPortsOverlap(t *testing.T) {
	e := sim.NewEngine()
	x := NewCrossbar(e, "x", 4, 8) // ctrl → 1 tick occupancy
	a1 := x.Send(x.Port("a"), x.Port("b"), CtrlMsgBytes, nil, nil)
	a2 := x.Send(x.Port("c"), x.Port("d"), CtrlMsgBytes, nil, nil)
	if a1 != a2 {
		t.Errorf("independent port pairs should overlap: %d vs %d", a1, a2)
	}
}

func TestCrossbarSharedOutputSerialises(t *testing.T) {
	e := sim.NewEngine()
	x := NewCrossbar(e, "x", 4, 8)
	a1 := x.Send(x.Port("a"), x.Port("mem"), CtrlMsgBytes, nil, nil)
	a2 := x.Send(x.Port("b"), x.Port("mem"), CtrlMsgBytes, nil, nil)
	if a2 <= a1 {
		t.Errorf("same destination should serialise: %d then %d", a1, a2)
	}
}

func TestCrossbarSharedInputSerialises(t *testing.T) {
	e := sim.NewEngine()
	x := NewCrossbar(e, "x", 4, 8)
	a1 := x.Send(x.Port("cpu"), x.Port("a"), CtrlMsgBytes, nil, nil)
	a2 := x.Send(x.Port("cpu"), x.Port("b"), CtrlMsgBytes, nil, nil)
	if a2 <= a1 {
		t.Errorf("same source should serialise: %d then %d", a1, a2)
	}
}

func TestCrossbarTrafficTotals(t *testing.T) {
	e := sim.NewEngine()
	x := NewCrossbar(e, "x", 1, 0)
	x.Send(x.Port("a"), x.Port("b"), DataMsgBytes, nil, nil)
	x.Send(x.Port("a"), x.Port("b"), CtrlMsgBytes, nil, nil)
	if x.Counters().Messages != 2 || x.Counters().Bytes != DataMsgBytes+CtrlMsgBytes {
		t.Errorf("totals msgs=%d bytes=%d", x.Counters().Messages, x.Counters().Bytes)
	}
}

func TestSerialisationRounding(t *testing.T) {
	if serialisation(1, 16) != 1 {
		t.Error("1B over 16B/t should take 1 tick")
	}
	if serialisation(16, 16) != 1 {
		t.Error("16B over 16B/t should take 1 tick")
	}
	if serialisation(17, 16) != 2 {
		t.Error("17B over 16B/t should take 2 ticks")
	}
	if serialisation(1000, 0) != 0 {
		t.Error("infinite bandwidth should have zero occupancy")
	}
}

// Property: arrivals on one link are non-decreasing and each is at least
// latency after its send.
func TestPropertyLinkArrivalOrdering(t *testing.T) {
	f := func(sizes []uint8) bool {
		e := sim.NewEngine()
		l := NewLink(e, "p", 7, 4)
		var last sim.Tick
		for _, s := range sizes {
			size := int(s)%200 + 1
			arr := l.Send(size, nil, nil)
			if arr < e.Now()+7 {
				return false
			}
			if arr < last {
				return false
			}
			last = arr
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: crossbar conserves message and byte counts.
func TestPropertyCrossbarConservation(t *testing.T) {
	f := func(sizes []uint8) bool {
		e := sim.NewEngine()
		x := NewCrossbar(e, "p", 2, 8)
		var wantBytes uint64
		for i, s := range sizes {
			size := int(s)%300 + 1
			src := string(rune('a' + i%3))
			dst := string(rune('x' + i%2))
			x.Send(x.Port(src), x.Port(dst), size, nil, nil)
			wantBytes += uint64(size)
		}
		return x.Counters().Messages == uint64(len(sizes)) && x.Counters().Bytes == wantBytes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
