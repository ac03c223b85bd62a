package coherence

import (
	"fmt"
	"strings"
)

// This file lists the coherence flavours the simulator implements: each
// Protocol names its mode flags, the slice of the shared transition
// table it exercises and the message classes it puts on the wire. Every
// flavour is judged by the one invariant set below, which the model
// checker (internal/modelcheck) and the runtime checker
// (MemCtrl.CheckInvariants, consumed by the chaos harness) both
// evaluate. The standard model-check sweep and the DESIGN.md Appendix-A
// renderer walk the list.

// Protocol is one coherence protocol flavour.
type Protocol struct {
	// Name identifies the protocol in sweeps, reports and DESIGN.md.
	Name string
	// Doc is a one-line description.
	Doc string

	// Config surface: the mode flags that select this flavour at
	// runtime (CtrlConfig / modelcheck.Config).
	//
	// Direct enables the direct-store region: CPU pushes over the
	// dedicated network, GPU-side caching, CPU remote loads.
	Direct bool
	// Resilient enables the seq-numbered acknowledged push protocol
	// (retry, NACK, duplicate suppression).
	Resilient bool
	// WriteThroughPush selects the §III-F ablation: pushes install
	// exclusive-clean (M) and write through to memory.
	WriteThroughPush bool

	// Events is the subset of table events this flavour exercises; the
	// Appendix-A renderer shows only these columns.
	Events []Event
	// Messages lists the wire message classes the flavour uses.
	Messages []string
}

// LineView is a protocol-neutral snapshot of one line's coherence
// state across all agents — the common ground between the model
// checker's abstract state and the runtime controllers. Invariants
// are written against it so both consumers share one definition.
type LineView struct {
	// Line is a display label ("0", "0x40080").
	Line string
	// N is the number of agents; States and Vers hold [0,N).
	N      int
	States []State
	// Vers are the data versions each copy holds (ghost values from
	// the store oracle; meaningful only when HasVersions).
	Vers []uint64
	// Names optionally labels agents for reports; nil falls back to
	// "agent<i>".
	Names []string
	// MemVer and Latest are memory's version and the newest written
	// version (HasVersions only — the runtime checker has no global
	// ghost counter, so data-value invariants are skipped there).
	MemVer      uint64
	Latest      uint64
	HasVersions bool
	// Quiescent reports nothing is in flight for the line: no
	// transaction, queued request, message, outstanding miss,
	// buffered writeback or pending push.
	Quiescent bool
}

func (v *LineView) name(i int) string {
	if i < len(v.Names) {
		return v.Names[i]
	}
	return fmt.Sprintf("agent%d", i)
}

// owners counts owner copies (MM, M, O) and reports whether any is
// exclusive (MM, M), plus the number of non-I holders.
func (v *LineView) owners() (owners, holders int, exclusive bool) {
	for i := 0; i < v.N; i++ {
		switch v.States[i] {
		case MM, M:
			owners++
			holders++
			exclusive = true
		case O:
			owners++
			holders++
		case S:
			holders++
		}
	}
	return
}

// Invariant is one safety property over a line view. Check returns ""
// when the invariant holds, or a violation message.
type Invariant struct {
	Name string
	// QuiescentOnly restricts the check to quiescent lines (ownership
	// is transferred atomically, but holder counts and data versions
	// are only meaningful once traffic drains).
	QuiescentOnly bool
	// NeedsVersions restricts the check to consumers with a version
	// oracle (the model checker and the chaos harness; the plain
	// runtime checker has none).
	NeedsVersions bool
	Check         func(v *LineView) string
}

// Applies reports whether the invariant can be evaluated on v.
func (inv *Invariant) Applies(v *LineView) bool {
	if inv.QuiescentOnly && !v.Quiescent {
		return false
	}
	if inv.NeedsVersions && !v.HasVersions {
		return false
	}
	return true
}

// Invariants is the safety-invariant set, in evaluation order, that
// every flavour checks over LineView, in the model checker and in
// MemCtrl.CheckInvariants alike.
var Invariants = [...]Invariant{
	// At most one owner copy per line, always — even mid-transaction,
	// ownership transfer is atomic.
	{
		Name: "swmr-owner",
		Check: func(v *LineView) string {
			owners, _, _ := v.owners()
			if owners > 1 {
				return fmt.Sprintf("SWMR violation: line %s has %d owners", v.Line, owners)
			}
			return ""
		},
	},

	// An exclusive holder is the only holder once the line drains.
	{
		Name:          "exclusive-sole-holder",
		QuiescentOnly: true,
		Check: func(v *LineView) string {
			_, holders, exclusive := v.owners()
			if exclusive && holders > 1 {
				return fmt.Sprintf("SWMR violation: line %s exclusive with %d holders at quiescence", v.Line, holders)
			}
			return ""
		},
	},

	// Every surviving copy holds the newest version.
	{
		Name:          "data-value-copies",
		QuiescentOnly: true,
		NeedsVersions: true,
		Check: func(v *LineView) string {
			for i := 0; i < v.N; i++ {
				if v.States[i] != I && v.Vers[i] != v.Latest {
					return fmt.Sprintf("data-value violation: %s line %s holds v%d at quiescence, newest is v%d (lost store)",
						v.name(i), v.Line, v.Vers[i], v.Latest)
				}
			}
			return ""
		},
	},

	// With no owner left, memory itself must be current.
	{
		Name:          "data-value-memory",
		QuiescentOnly: true,
		NeedsVersions: true,
		Check: func(v *LineView) string {
			owners, _, _ := v.owners()
			if owners == 0 && v.MemVer != v.Latest {
				return fmt.Sprintf("data-value violation: line %s has no owner at quiescence but memory holds v%d, newest is v%d",
					v.Line, v.MemVer, v.Latest)
			}
			return ""
		},
	},
}

// Event subsets per flavour. The heap protocol is plain MOESI-Hammer;
// the direct flavours add the push/remote-load columns.
func heapEvents() []Event {
	return []Event{
		EvLoadHit, EvStoreHit, EvProbeShare, EvProbeInv,
		EvFillS, EvFillM, EvFillMM, EvEvict,
	}
}

func directEvents(writeThrough bool) []Event {
	push := EvPushInstall
	if writeThrough {
		push = EvPushInstallWT
	}
	return append(heapEvents(), EvProbeSnoop, push, EvDirectStore)
}

// Wire message classes per flavour.
func heapMessages() []string {
	return []string{"GETS", "GETX", "WB", "Probe", "Ack", "Data", "Unblock"}
}

func directMessages(resilient bool) []string {
	m := append(heapMessages(), "RemoteLoad", "Putx")
	if resilient {
		m = append(m, "PushAck")
	}
	return m
}

// Protocols returns every flavour in display order, as a fresh value
// on each call (the slices are shared-read only by convention, but a
// sweep mutating its copy must not corrupt the list).
func Protocols() []Protocol {
	return []Protocol{
		{
			Name:     "heap",
			Doc:      "broadcast MOESI-Hammer over the shared crossbar (no direct-store region)",
			Events:   heapEvents(),
			Messages: heapMessages(),
		},
		{
			Name:     "direct",
			Doc:      "MOESI-Hammer plus the paper's direct-store extension: fire-and-forget pushes install MM at the owning GPU L2 slice",
			Direct:   true,
			Events:   directEvents(false),
			Messages: directMessages(false),
		},
		{
			Name:      "resilient",
			Doc:       "direct store with seq-numbered acknowledged pushes: retry on NACK or loss, receiver-side duplicate suppression",
			Direct:    true,
			Resilient: true,
			Events:    directEvents(false),
			Messages:  directMessages(true),
		},
		{
			Name:             "write-through-push",
			Doc:              "the §III-F ablation: pushes install exclusive-clean (M) and write through to memory",
			Direct:           true,
			WriteThroughPush: true,
			Events:           directEvents(true),
			Messages:         directMessages(false),
		},
	}
}

// CheckLineView runs the invariant set over one line view, returning
// the first violation message or "". count, when non-nil, receives one
// increment per invariant evaluated (indexed like Invariants) — the
// model checker's per-invariant statistics.
func CheckLineView(v *LineView, count []uint64) string {
	for i := range Invariants {
		inv := &Invariants[i]
		if !inv.Applies(v) {
			continue
		}
		if count != nil {
			count[i]++
		}
		if msg := inv.Check(v); msg != "" {
			return msg
		}
	}
	return ""
}

// AppendixA renders the per-protocol transition tables for DESIGN.md:
// one section per flavour showing only the event columns that flavour
// exercises, kept in sync by TestProtocolTableAppendix.
func AppendixA() string {
	names := make([]string, len(Invariants))
	for i := range Invariants {
		names[i] = Invariants[i].Name
	}
	invariants := strings.Join(names, ", ")
	var b strings.Builder
	for i, p := range Protocols() {
		if i > 0 {
			b.WriteString("\n")
		}
		fmt.Fprintf(&b, "### %s\n\n%s.\n\n", p.Name, p.Doc)
		fmt.Fprintf(&b, "Messages: %s.\n", strings.Join(p.Messages, ", "))
		fmt.Fprintf(&b, "Invariants: %s.\n\n", invariants)
		b.WriteString(protocolTableFor(p.Events))
	}
	return b.String()
}
