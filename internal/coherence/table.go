package coherence

import (
	"fmt"
	"strings"
)

// This file is the protocol's single source of truth: the MOESI-Hammer
// + direct-store transition relation as an explicit table. The runtime
// controllers (ctrl.go, memctrl.go) consult it, the model checker
// (internal/modelcheck) exhaustively enumerates it, the fuzz target
// throws arbitrary inputs at it, and the DESIGN.md appendix is
// generated from it — so the table cannot drift from the code that
// executes it.

// Event enumerates the stimuli that can hit a cache controller for one
// line: local demand accesses, probes from the ordering point, fill
// grants completing a miss, direct-store traffic, and evictions.
type Event uint8

// Events. Fill events carry the grant state of the arriving DataMsg;
// EvPushInstall / EvPushInstallWT are the two install flavours of a
// PUTX (paper §III-F baseline vs write-through ablation).
const (
	EvLoadHit Event = iota
	EvStoreHit
	EvProbeShare
	EvProbeInv
	EvProbeSnoop
	EvFillS
	EvFillM
	EvFillMM
	EvPushInstall
	EvPushInstallWT
	EvDirectStore
	EvEvict
	NumEvents
)

// EventName returns a short display name for an event.
func EventName(ev Event) string {
	switch ev {
	case EvLoadHit:
		return "LoadHit"
	case EvStoreHit:
		return "StoreHit"
	case EvProbeShare:
		return "PrbShare"
	case EvProbeInv:
		return "PrbInv"
	case EvProbeSnoop:
		return "PrbSnoop"
	case EvFillS:
		return "Fill(S)"
	case EvFillM:
		return "Fill(M)"
	case EvFillMM:
		return "Fill(MM)"
	case EvPushInstall:
		return "Putx"
	case EvPushInstallWT:
		return "Putx(WT)"
	case EvDirectStore:
		return "DirectStore"
	case EvEvict:
		return "Evict"
	default:
		return fmt.Sprintf("Event(%d)", uint8(ev))
	}
}

// EventIdent returns the Go identifier of an event constant
// ("EvLoadHit"), as opposed to EventName's display form ("LoadHit").
// The model checker's reachability dump records events under these
// names so the tablecover analyzer can resolve them back to values by
// package-scope lookup, independent of display formatting.
func EventIdent(ev Event) string {
	switch ev {
	case EvLoadHit:
		return "EvLoadHit"
	case EvStoreHit:
		return "EvStoreHit"
	case EvProbeShare:
		return "EvProbeShare"
	case EvProbeInv:
		return "EvProbeInv"
	case EvProbeSnoop:
		return "EvProbeSnoop"
	case EvFillS:
		return "EvFillS"
	case EvFillM:
		return "EvFillM"
	case EvFillMM:
		return "EvFillMM"
	case EvPushInstall:
		return "EvPushInstall"
	case EvPushInstallWT:
		return "EvPushInstallWT"
	case EvDirectStore:
		return "EvDirectStore"
	case EvEvict:
		return "EvEvict"
	default:
		return fmt.Sprintf("Event(%d)", uint8(ev))
	}
}

// ProbeEvent maps a wire probe kind to its table event.
func ProbeEvent(k ProbeKind) Event {
	switch k {
	case PrbShare:
		return EvProbeShare
	case PrbInv:
		return EvProbeInv
	default:
		return EvProbeSnoop
	}
}

// DataCond describes the data a transition supplies to the requester
// (probe reactions only; every other event supplies nothing).
type DataCond uint8

// Data conditions.
const (
	// NoData supplies nothing.
	NoData DataCond = iota
	// CleanData supplies data that matches memory.
	CleanData
	// DirtyIfDirty supplies data whose dirtiness is the line's dirty
	// bit (O and M copies may or may not carry writeback duty).
	DirtyIfDirty
	// DirtyData supplies data known dirty with respect to memory (an
	// MM copy is always treated as modified).
	DirtyData
)

// DirtyEffect describes a transition's effect on the line's dirty bit.
type DirtyEffect uint8

// Dirty-bit effects.
const (
	DirtyKeep DirtyEffect = iota
	DirtyClear
	DirtySet
)

// Outcome is one cell of the transition table.
type Outcome struct {
	// OK reports the (state, event) pair is legal. Illegal pairs (a
	// store hit in S, an eviction of an invalid line) mean the
	// controller must take a different path (miss, upgrade, no-op) —
	// reaching Transition with them is a protocol bug.
	OK bool
	// Next is the stable state after the transition.
	Next State
	// Data is what the transition supplies to the requester.
	Data DataCond
	// Present reports a probe ack that announces a surviving shared
	// copy without supplying data.
	Present bool
	// Dirty is the transition's effect on the line's dirty bit. Fills
	// install clean; the DataMsg's Owned flag (dirty-data
	// responsibility transfer) and subsequent stores set it.
	Dirty DirtyEffect
}

// NumStates is the number of stable states (I, S, O, M, MM).
const NumStates = 5

// table[state][event]. Zero value is "illegal" (OK == false).
var table = func() [NumStates][NumEvents]Outcome {
	var t [NumStates][NumEvents]Outcome
	set := func(st State, ev Event, o Outcome) {
		o.OK = true
		t[st][ev] = o
	}
	for _, st := range []State{S, O, M, MM} {
		// Reads hit in every valid state; evictions drop to I (the
		// dirty bit decides whether a writeback leaves — ctrl.go).
		set(st, EvLoadHit, Outcome{Next: st})
		set(st, EvEvict, Outcome{Next: I, Dirty: DirtyClear})
	}

	// Stores: allowed only with exclusive-modified permission. M (the
	// paper's exclusive-clean) upgrades to MM silently — no other node
	// holds a copy, so no transaction is needed.
	set(MM, EvStoreHit, Outcome{Next: MM, Dirty: DirtySet})
	set(M, EvStoreHit, Outcome{Next: MM, Dirty: DirtySet})

	// PrbShare: a requester wants a readable copy. The modified owner
	// supplies and keeps writeback duty in O; an exclusive-clean copy
	// surrenders to S (memory already matches); O supplies per its
	// dirty bit; a sharer just reports presence.
	set(I, EvProbeShare, Outcome{Next: I})
	set(S, EvProbeShare, Outcome{Next: S, Present: true})
	set(O, EvProbeShare, Outcome{Next: O, Data: DirtyIfDirty})
	set(M, EvProbeShare, Outcome{Next: S, Data: CleanData})
	set(MM, EvProbeShare, Outcome{Next: O, Data: DirtyData})

	// PrbInv: a requester wants exclusivity; every copy dies, owners
	// supply data on the way out.
	set(I, EvProbeInv, Outcome{Next: I})
	set(S, EvProbeInv, Outcome{Next: I, Present: true, Dirty: DirtyClear})
	set(O, EvProbeInv, Outcome{Next: I, Data: DirtyIfDirty, Dirty: DirtyClear})
	set(M, EvProbeInv, Outcome{Next: I, Data: DirtyIfDirty, Dirty: DirtyClear})
	set(MM, EvProbeInv, Outcome{Next: I, Data: DirtyData, Dirty: DirtyClear})

	// PrbSnoop: an uncacheable RemoteLoad reads through; nobody
	// changes state. RemoteLoads target the direct region, whose only
	// cached copy is the homing GPU slice's M/MM (no other agent may
	// GETS a direct line), so the S and O rows are declared for
	// totality but can never fire.
	set(I, EvProbeSnoop, Outcome{Next: I})
	set(S, EvProbeSnoop, Outcome{Next: S, Present: true})      //dstore:allow-uncovered no sharer can exist on a direct line to snoop
	set(O, EvProbeSnoop, Outcome{Next: O, Data: DirtyIfDirty}) //dstore:allow-uncovered no owner downgrade can exist on a direct line to snoop
	set(M, EvProbeSnoop, Outcome{Next: M, Data: DirtyIfDirty})
	set(MM, EvProbeSnoop, Outcome{Next: MM, Data: DirtyData})

	// Fills. GETS data installs S (sharers survive) or M (nobody else
	// holds a copy); GETX installs MM. The upgrade path (GETX issued
	// from S or O) receives its grant while still holding the stale
	// copy, so Fill(MM) is legal from S and O as well as I.
	set(I, EvFillS, Outcome{Next: S, Dirty: DirtyClear})
	set(I, EvFillM, Outcome{Next: M, Dirty: DirtyClear})
	for _, st := range []State{I, S, O} {
		set(st, EvFillMM, Outcome{Next: MM, Dirty: DirtyClear})
	}

	// Direct-store push install: the blue dashed I→MM transition of
	// Fig. 3. A re-push to a resident line (retry, or a line the slice
	// read back in M) also lands in MM; the write-through ablation
	// installs exclusive-clean instead. Rows are declared for all five
	// states (the table is total over resident states), but grouped by
	// reachability so the tablecover dead-transition check can pin its
	// annotations to exactly the rows the model checker cannot fire.
	for _, st := range []State{I, M, MM} {
		set(st, EvPushInstall, Outcome{Next: MM, Dirty: DirtySet})
	}
	for _, st := range []State{I, M} {
		set(st, EvPushInstallWT, Outcome{Next: M, Dirty: DirtyClear})
	}
	for _, st := range []State{S, O} {
		// A direct-region line is cached only by its homing GPU L2
		// slice, and no other agent may GETS it — so the slice can
		// never be downgraded to S or O and a push can never land on
		// such a copy. Declared for totality.
		set(st, EvPushInstall, Outcome{Next: MM, Dirty: DirtySet})    //dstore:allow-uncovered no sharer/owner downgrade can exist on a direct line
		set(st, EvPushInstallWT, Outcome{Next: M, Dirty: DirtyClear}) //dstore:allow-uncovered no sharer/owner downgrade can exist on a direct line
	}
	// Under the write-through ablation every install is exclusive-clean
	// M, and the slice never stores direct lines itself, so a push can
	// never find an MM copy.
	set(MM, EvPushInstallWT, Outcome{Next: M, Dirty: DirtyClear}) //dstore:allow-uncovered write-through installs are always clean, so MM never occurs

	// Direct store (CPU side): the bold I/S/M/MM → I transitions of
	// Fig. 3 — the store is never cached locally. Only the I row is
	// reachable: the reserved region "can never be cached on the CPU
	// side" (§III-E), so the non-I rows are the runtime's defensive
	// path, declared for totality.
	set(I, EvDirectStore, Outcome{Next: I, Dirty: DirtyClear})
	for _, st := range []State{S, O, M, MM} {
		set(st, EvDirectStore, Outcome{Next: I, Dirty: DirtyClear}) //dstore:allow-uncovered the direct region is never CPU-cached in translated programs
	}
	return t
}()

// Transition returns the table cell for (st, ev). Out-of-range inputs
// return a zero Outcome (OK == false) rather than panicking, so the
// function is total — the fuzz target relies on this.
func Transition(st State, ev Event) Outcome {
	if int(st) >= NumStates || ev >= NumEvents {
		return Outcome{}
	}
	return table[st][ev]
}

// DataDirty resolves a DataCond against the line's dirty bit.
func DataDirty(c DataCond, lineDirty bool) bool {
	switch c {
	case DirtyData:
		return true
	case DirtyIfDirty:
		return lineDirty
	default:
		return false
	}
}

// ProbeFor returns the probe kind the ordering point broadcasts for a
// request type. ok is false for WB, which probes nobody.
func ProbeFor(t ReqType) (ProbeKind, bool) {
	switch t {
	case GETS:
		return PrbShare, true
	case GETX:
		return PrbInv, true
	case RemoteLoad:
		return PrbSnoop, true
	default:
		return PrbShare, false
	}
}

// GrantState returns the state a requester installs for data answering
// request type t. fromOwner marks a 3-hop owner-to-requester transfer;
// sharerSurvives marks a GETS whose probes found a surviving copy.
// Hammer grants exclusive-clean (M) to a GETS that found no other
// copy. RemoteLoad data is uncacheable and never installs.
func GrantState(t ReqType, fromOwner, sharerSurvives bool) State {
	switch t {
	case GETX:
		return MM
	case GETS:
		if fromOwner || sharerSurvives {
			return S
		}
		return M
	default:
		return I
	}
}

// FillEvent maps a grant state to its fill event. ok is false for
// grant I (uncacheable data, no install).
func FillEvent(grant State) (Event, bool) {
	switch grant {
	case S:
		return EvFillS, true
	case M:
		return EvFillM, true
	case MM:
		return EvFillMM, true
	default:
		return 0, false
	}
}

// PushInstallState returns the install state and dirty bit of a
// direct-store PUTX: MM and dirty in the paper's scheme, M and clean
// under the write-through ablation.
func PushInstallState(writeThrough bool) (State, bool) {
	out := Transition(I, PushEvent(writeThrough))
	return out.Next, out.Dirty == DirtySet
}

// PushEvent maps the write-through flag to the PUTX install event.
func PushEvent(writeThrough bool) Event {
	if writeThrough {
		return EvPushInstallWT
	}
	return EvPushInstall
}

// protocolTableFor renders the transition table restricted to the
// given event columns as a GitHub-flavoured markdown table.
func protocolTableFor(events []Event) string {
	states := []State{I, S, O, M, MM}
	var b strings.Builder
	b.WriteString("| State |")
	for _, ev := range events {
		fmt.Fprintf(&b, " %s |", EventName(ev))
	}
	b.WriteString("\n|---|")
	for range events {
		b.WriteString("---|")
	}
	b.WriteString("\n")
	for _, st := range states {
		fmt.Fprintf(&b, "| **%s** |", StateName(st))
		for _, ev := range events {
			fmt.Fprintf(&b, " %s |", cellString(st, Transition(st, ev)))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// cellString renders one table cell: the next state plus the data /
// presence the transition announces. "·" marks an illegal pair.
func cellString(st State, o Outcome) string {
	if !o.OK {
		return "·"
	}
	var parts []string
	if o.Next != st {
		parts = append(parts, "→"+StateName(o.Next))
	} else {
		parts = append(parts, StateName(o.Next))
	}
	switch o.Data {
	case CleanData:
		parts = append(parts, "data")
	case DirtyIfDirty:
		parts = append(parts, "data(d?)")
	case DirtyData:
		parts = append(parts, "data(d)")
	}
	if o.Present {
		parts = append(parts, "present")
	}
	return strings.Join(parts, " ")
}
