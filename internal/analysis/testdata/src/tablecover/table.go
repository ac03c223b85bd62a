// Package tablecover is the seeded-violation fixture for the
// tablecover analyzer: a miniature protocol package in the shape of
// internal/coherence (a table.go populating `var table` through a set
// helper, a ctrl.go and a core.go consulting it through Transition)
// that seeds exactly one violation per rule — a declared row with no
// handler arm, a handler arm for an undeclared row (in each handler
// file), and a declared row absent from the reachability dump — plus
// an annotated twin for each escape hatch. Loaded only by the analysis
// unit tests (wildcards skip testdata).
package tablecover

// State mirrors the coherence package's alias form deliberately: the
// analyzer must resolve state constants by value, not by named type.
type State = uint8

// Event enumerates the fixture's stimuli.
type Event uint8

// States.
const (
	I State = iota
	S
	M
)

// NumStates is the number of states.
const NumStates = 3

// Events.
const (
	EvLoad Event = iota
	EvStore
	EvProbe
	EvProbeInv
	EvFill
	EvEvict
	EvPush
	NumEvents
)

// Outcome is one table cell.
type Outcome struct {
	OK   bool
	Next State
}

// table[state][event]. Zero value is "illegal".
var table = func() [NumStates][NumEvents]Outcome {
	var t [NumStates][NumEvents]Outcome
	set := func(st State, ev Event, o Outcome) {
		o.OK = true
		t[st][ev] = o
	}
	for _, st := range []State{S, M} {
		set(st, EvLoad, Outcome{Next: st})
		set(st, EvProbe, Outcome{Next: S})
		set(st, EvProbeInv, Outcome{Next: I})
	}
	set(M, EvStore, Outcome{Next: M})
	set(I, EvFill, Outcome{Next: S})
	// Seeded dead transition: declared and handled, but absent from
	// testdata/reachability.json.
	set(S, EvEvict, Outcome{Next: I})
	set(M, EvEvict, Outcome{Next: I}) //dstore:allow-uncovered fixture: annotated twin
	// Seeded unhandled transition: declared, but no ctrl.go arm
	// consults EvPush.
	set(I, EvPush, Outcome{Next: M})
	set(M, EvPush, Outcome{Next: M}) //dstore:allow-unhandled fixture: annotated twin
	return t
}()

// Transition returns the table cell for (st, ev).
func Transition(st State, ev Event) Outcome {
	if int(st) >= NumStates || ev >= NumEvents {
		return Outcome{}
	}
	return table[st][ev]
}

// ProbeEvent maps an invalidating flag to its probe event — the
// helper-call form of event resolution.
func ProbeEvent(inv bool) Event {
	if inv {
		return EvProbeInv
	}
	return EvProbe
}

// FillEvent maps a grant to its fill event — the assigned-variable
// form of event resolution.
func FillEvent(grant State) (Event, bool) {
	if grant == S {
		return EvFill, true
	}
	return EvFill, false
}
