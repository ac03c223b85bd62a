package tablecover

// This is the fixture's transition core, shared in the real package by
// the controllers and the model checker: its Transition call sites are
// handler arms exactly like ctrl.go's.

// Fill handles fills through a FillEvent-assigned variable. It is the
// only arm consulting EvFill, so (I, EvFill) counts as handled only
// because core.go is scanned.
func Fill(st State, grant State) bool {
	ev, ok := FillEvent(grant)
	return ok && Transition(st, ev).OK
}

// BadEvict is the core file's seeded undeclared-transition violation:
// the table declares no (I, EvEvict) row.
func BadEvict() bool {
	return Transition(I, EvEvict).OK
}
