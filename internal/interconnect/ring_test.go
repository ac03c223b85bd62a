package interconnect

import (
	"testing"
	"testing/quick"

	"dstore/internal/sim"
)

func newRing4(e *sim.Engine) *Ring {
	return NewRing(e, "r", []string{"a", "b", "c", "d"}, 5, 0)
}

func TestRingShortestPathHops(t *testing.T) {
	e := sim.NewEngine()
	r := newRing4(e)
	cases := []struct {
		src, dst string
		hops     int
	}{
		{"a", "a", 0}, {"a", "b", 1}, {"a", "c", 2}, {"a", "d", 1},
		{"b", "d", 2}, {"d", "a", 1}, {"c", "a", 2},
	}
	for _, c := range cases {
		if got := r.HopsBetween(c.src, c.dst); got != c.hops {
			t.Errorf("hops %s->%s = %d, want %d", c.src, c.dst, got, c.hops)
		}
	}
}

func TestRingLatencyScalesWithHops(t *testing.T) {
	e := sim.NewEngine()
	r := newRing4(e)
	one := r.Send(r.Port("a"), r.Port("b"), CtrlMsgBytes, nil, nil)
	e = sim.NewEngine()
	r = newRing4(e)
	two := r.Send(r.Port("a"), r.Port("c"), CtrlMsgBytes, nil, nil)
	if two != 2*one {
		t.Errorf("2-hop arrival %d, want double the 1-hop %d", two, one)
	}
}

func TestRingDelivery(t *testing.T) {
	e := sim.NewEngine()
	r := newRing4(e)
	var at sim.Tick
	arr := r.Send(r.Port("a"), r.Port("c"), DataMsgBytes, func(_ any, now sim.Tick) { at = now }, nil)
	e.Run()
	if at != arr || at == 0 {
		t.Errorf("delivered at %d, Send returned %d", at, arr)
	}
}

func TestRingLinkContention(t *testing.T) {
	// Two messages crossing the same directed link serialise; messages
	// on opposite directions do not.
	e := sim.NewEngine()
	r := NewRing(e, "r", []string{"a", "b", "c", "d"}, 5, 8)
	a1 := r.Send(r.Port("a"), r.Port("b"), DataMsgBytes, nil, nil) // cw link a->b
	a2 := r.Send(r.Port("a"), r.Port("b"), DataMsgBytes, nil, nil) // same link: queued
	if a2 <= a1 {
		t.Errorf("same-link messages did not serialise: %d then %d", a1, a2)
	}
	e2 := sim.NewEngine()
	r2 := NewRing(e2, "r", []string{"a", "b", "c", "d"}, 5, 8)
	b1 := r2.Send(r2.Port("a"), r2.Port("b"), DataMsgBytes, nil, nil) // cw
	b2 := r2.Send(r2.Port("b"), r2.Port("a"), DataMsgBytes, nil, nil) // ccw: independent link
	if b2 != b1 {
		t.Errorf("opposite-direction messages interfered: %d vs %d", b1, b2)
	}
}

func TestRingCounters(t *testing.T) {
	e := sim.NewEngine()
	r := newRing4(e)
	r.Send(r.Port("a"), r.Port("c"), CtrlMsgBytes, nil, nil) // 2 hops
	r.Send(r.Port("a"), r.Port("b"), DataMsgBytes, nil, nil) // 1 hop
	if r.Counters().Messages != 2 {
		t.Error("message count wrong")
	}
	if r.Counters().Bytes != CtrlMsgBytes+DataMsgBytes {
		t.Error("byte count wrong")
	}
	if r.Counters().Get("hops") != 3 {
		t.Errorf("hops = %d, want 3", r.Counters().Get("hops"))
	}
}

func TestRingPanics(t *testing.T) {
	e := sim.NewEngine()
	for name, fn := range map[string]func(){
		"too-few-nodes": func() { NewRing(e, "x", []string{"a"}, 1, 0) },
		"dup-node":      func() { NewRing(e, "x", []string{"a", "a"}, 1, 0) },
		"zero-size":     func() { r := newRing4(e); r.Send(r.Port("a"), r.Port("b"), 0, nil, nil) },
		"unknown-node":  func() { newRing4(e).Port("z") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestRingNodesCopy(t *testing.T) {
	e := sim.NewEngine()
	r := newRing4(e)
	ns := r.Nodes()
	ns[0] = "mutated"
	if r.Nodes()[0] == "mutated" {
		t.Error("Nodes returned live slice")
	}
}

// Property: every message arrives, and arrival is monotone in hop count
// for uncontended sends.
func TestPropertyRingDelivery(t *testing.T) {
	nodes := []string{"n0", "n1", "n2", "n3", "n4", "n5"}
	f := func(pairs []uint8) bool {
		e := sim.NewEngine()
		r := NewRing(e, "p", nodes, 3, 16)
		want := len(pairs)
		got := 0
		for _, p := range pairs {
			src := nodes[int(p)%len(nodes)]
			dst := nodes[int(p>>4)%len(nodes)]
			r.Send(r.Port(src), r.Port(dst), CtrlMsgBytes, func(any, sim.Tick) { got++ }, nil)
		}
		e.Run()
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
