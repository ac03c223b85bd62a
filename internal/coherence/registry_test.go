package coherence

import (
	"strings"
	"testing"
)

func TestProtocolRegistry(t *testing.T) {
	ps := Protocols()
	if len(ps) != 4 {
		t.Fatalf("registered %d protocols, want 4", len(ps))
	}
	seen := map[string]bool{}
	modes := map[[3]bool]string{}
	for _, p := range ps {
		if p.Name == "" || p.Doc == "" {
			t.Errorf("protocol %+v missing name or doc", p)
		}
		if seen[p.Name] {
			t.Errorf("duplicate protocol %q", p.Name)
		}
		seen[p.Name] = true
		if len(p.Events) == 0 || len(p.Messages) == 0 {
			t.Errorf("%s: empty events/messages", p.Name)
		}
		// Every declared event must be inside the table bounds, and the
		// direct-only columns must not leak into the heap protocol.
		for _, ev := range p.Events {
			if ev >= NumEvents {
				t.Errorf("%s: event %d out of range", p.Name, ev)
			}
			if !p.Direct && (ev == EvProbeSnoop || ev == EvPushInstall || ev == EvPushInstallWT || ev == EvDirectStore) {
				t.Errorf("%s: heap protocol lists direct event %s", p.Name, EventName(ev))
			}
		}
		flags := [3]bool{p.Direct, p.Resilient, p.WriteThroughPush}
		if modes[flags] != "" {
			t.Errorf("%s and %s select the same mode flags %v", modes[flags], p.Name, flags)
		}
		modes[flags] = p.Name
	}
}

func TestInvariantChecks(t *testing.T) {
	count := make([]uint64, len(Invariants))

	// Two owners: SWMR violation even mid-flight.
	v := &LineView{Line: "0", N: 3, States: []State{M, O, I}, Vers: make([]uint64, 3)}
	if msg := CheckLineView(v, count); !strings.Contains(msg, "SWMR violation") || !strings.Contains(msg, "2 owners") {
		t.Errorf("two owners: got %q", msg)
	}
	if count[0] == 0 {
		t.Error("per-invariant count not incremented")
	}

	// Exclusive alongside a sharer: legal in flight, flagged at rest.
	v = &LineView{Line: "0", N: 3, States: []State{MM, S, I}, Vers: make([]uint64, 3)}
	if msg := CheckLineView(v, nil); msg != "" {
		t.Errorf("in-flight exclusive+sharer flagged: %q", msg)
	}
	v.Quiescent = true
	if msg := CheckLineView(v, nil); !strings.Contains(msg, "exclusive with 2 holders") {
		t.Errorf("quiescent exclusive+sharer: got %q", msg)
	}

	// Stale copy at quiescence, versions known.
	v = &LineView{Line: "0", N: 2, States: []State{S, I},
		Vers: []uint64{1, 0}, MemVer: 2, Latest: 2, HasVersions: true, Quiescent: true}
	if msg := CheckLineView(v, nil); !strings.Contains(msg, "lost store") {
		t.Errorf("stale copy: got %q", msg)
	}
	// Without versions the same view passes (runtime checker has no oracle).
	v.HasVersions = false
	if msg := CheckLineView(v, nil); msg != "" {
		t.Errorf("no-oracle view flagged: %q", msg)
	}

	// No owner and stale memory.
	v = &LineView{Line: "0", N: 2, States: []State{I, I},
		Vers: make([]uint64, 2), MemVer: 1, Latest: 2, HasVersions: true, Quiescent: true}
	if msg := CheckLineView(v, nil); !strings.Contains(msg, "memory holds v1") {
		t.Errorf("stale memory: got %q", msg)
	}

	// Clean single-owner view passes everything.
	v = &LineView{Line: "0", N: 2, States: []State{MM, I},
		Vers: []uint64{2, 0}, MemVer: 1, Latest: 2, HasVersions: true, Quiescent: true}
	if msg := CheckLineView(v, nil); msg != "" {
		t.Errorf("clean view flagged: %q", msg)
	}
}

func TestAppendixARendersAllProtocols(t *testing.T) {
	out := AppendixA()
	for _, p := range Protocols() {
		if !strings.Contains(out, "### "+p.Name) {
			t.Errorf("appendix missing section for %s", p.Name)
		}
	}
	// The heap section must not carry the push column; the direct ones must.
	heap := out[:strings.Index(out, "### direct")]
	if strings.Contains(heap, "Putx") {
		t.Error("heap appendix table lists the Putx column")
	}
	if !strings.Contains(out[strings.Index(out, "### direct"):], "Putx") {
		t.Error("direct appendix table missing the Putx column")
	}
}
