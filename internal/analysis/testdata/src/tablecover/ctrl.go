package tablecover

// Load handles demand loads: constant event, dynamic state.
func Load(st State) bool {
	return Transition(st, EvLoad).OK
}

// Store handles stores.
func Store(st State) bool {
	return Transition(st, EvStore).OK
}

// Probe handles probes through the ProbeEvent helper: the analyzer
// resolves the call to {EvProbe, EvProbeInv}.
func Probe(st State, inv bool) State {
	out := Transition(st, ProbeEvent(inv))
	if !out.OK {
		return st
	}
	return out.Next
}

// Evict handles evictions.
func Evict(st State) bool {
	return Transition(st, EvEvict).OK
}

// BadStore is the seeded undeclared-transition violation: the table
// declares no (I, EvStore) row, so this arm can never be taken.
func BadStore() bool {
	return Transition(I, EvStore).OK
}

// BadLoadAllowed is the annotated twin: (I, EvLoad) is equally
// undeclared, but the escape hatch suppresses the finding.
func BadLoadAllowed() bool {
	return Transition(I, EvLoad).OK //dstore:allow-undeclared fixture: annotated twin
}
