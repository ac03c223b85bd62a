package coherence

import (
	"fmt"
	"sort"

	"dstore/internal/memsys"
)

// SetProtocol selects the registered protocol whose invariant set
// CheckInvariants evaluates. The default is the plain heap protocol;
// core.NewSystem wires the flavour matching its mode flags.
func (m *MemCtrl) SetProtocol(p Protocol) { m.proto = &p }

// protocol returns the configured protocol, defaulting to heap.
func (m *MemCtrl) protocol() *Protocol {
	if m.proto == nil {
		p := ProtocolFor(false, false, false)
		m.proto = &p
	}
	return m.proto
}

// CheckInvariants validates the registered protocol's invariant set
// for the given lines across every registered peer cache — for the
// standard protocols: at most one owner (MM, M or O) per line, and an
// exclusive holder (MM or M) implies every other cache is I. The
// system must be drained first (every line is viewed as quiescent);
// in-flight transactions are an error by themselves. Data-value
// invariants need a version oracle and are skipped here — the chaos
// harness layers its own oracle on top.
//
// It is a debugging/verification aid for tests and for users
// embedding the simulator; a non-nil error means a protocol bug.
func (m *MemCtrl) CheckInvariants(lines []memsys.Addr) error {
	if !m.Idle() {
		return fmt.Errorf("coherence: %d transactions still in flight\n%s", m.busyCount, m.TransactionDump())
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
	proto := m.protocol()
	v := LineView{
		N:         len(names),
		States:    make([]State, len(names)),
		Dirty:     make([]bool, len(names)),
		Vers:      make([]uint64, len(names)),
		Names:     names,
		Quiescent: true,
	}
	for _, a := range lines {
		line := memsys.LineAlign(a)
		for i, c := range peers {
			v.States[i] = c.State(line)
			v.Vers[i] = c.Ver(line)
		}
		if proto.CheckLineView(&v, nil) != "" {
			// Label the line only for the report: formatting every
			// line's address up front cost more than the checks.
			v.Line = fmt.Sprintf("%#x", uint64(line))
			return fmt.Errorf("coherence: %s%s", proto.CheckLineView(&v, nil), holderDesc(&v))
		}
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
