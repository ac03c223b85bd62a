package coherence

import (
	"fmt"
	"sort"

	"dstore/internal/memsys"
)

// CheckInvariants validates the invariant set (Invariants) for the
// given lines across every registered peer cache: at most one owner
// (MM, M or O) per line, and an exclusive holder (MM or M) implies
// every other cache is I. The system must be drained first (every
// line is viewed as quiescent); in-flight transactions are an error by
// themselves. Data-value invariants need a version oracle and are
// skipped here — the chaos harness layers its own oracle on top.
//
// It is a debugging/verification aid for tests and for users
// embedding the simulator; a non-nil error means a protocol bug.
func (m *MemCtrl) CheckInvariants(lines []memsys.Addr) error {
	k, err := m.InvariantChecker()
	if err != nil {
		return err
	}
	for _, a := range lines {
		if err := k.Check(a); err != nil {
			return err
		}
	}
	return nil
}

// InvariantChecker checks CheckInvariants' invariant set one line at a
// time, for a caller that walks its lines instead of listing them.
type InvariantChecker struct {
	peers []*Ctrl
	v     LineView
}

// InvariantChecker returns a checker over the registered peer caches,
// or CheckInvariants' error when transactions are still in flight.
func (m *MemCtrl) InvariantChecker() (*InvariantChecker, error) {
	if !m.Idle() {
		return nil, fmt.Errorf("coherence: %d transactions still in flight\n%s", m.busy.len(), m.TransactionDump())
	}
	var peers []*Ctrl
	for _, c := range m.peers {
		if c != nil {
			peers = append(peers, c)
		}
	}
	sort.Slice(peers, func(i, j int) bool { return peers[i].name < peers[j].name })
	names := make([]string, len(peers))
	for i, c := range peers {
		names[i] = c.name
	}
	return &InvariantChecker{
		peers: peers,
		v: LineView{
			N:         len(names),
			States:    make([]State, len(names)),
			Vers:      make([]uint64, len(names)),
			Names:     names,
			Quiescent: true,
		},
	}, nil
}

// Check validates the line holding a.
func (k *InvariantChecker) Check(a memsys.Addr) error {
	line := memsys.LineAlign(a)
	v := &k.v
	for i, c := range k.peers {
		v.States[i] = c.State(line)
		v.Vers[i] = c.Ver(line)
	}
	if CheckLineView(v, nil) != "" {
		// Label the line only for the report: formatting every
		// line's address up front cost more than the checks.
		v.Line = fmt.Sprintf("%#x", uint64(line))
		return fmt.Errorf("coherence: %s%s", CheckLineView(v, nil), holderDesc(v))
	}
	return nil
}

// holderDesc renders the non-I holders of a line for error reports.
func holderDesc(v *LineView) string {
	desc := ""
	for i := 0; i < v.N; i++ {
		if v.States[i] != I {
			desc += fmt.Sprintf(" %s=%s", v.name(i), StateName(v.States[i]))
		}
	}
	if desc == "" {
		return ""
	}
	return " holders:" + desc
}
