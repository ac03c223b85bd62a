package coherence

import (
	"fmt"
	"math/bits"
	"slices"

	"dstore/internal/freelist"
	"dstore/internal/memsys"
)

// lineMap is a small open-addressed table keyed by line, for per-line
// state that only a few lines hold at a time: a controller's buffered
// writebacks and the ordering point's open transactions. A dense
// lineTab would spend a page on every line ever touched to find them.
//
// Slots are linearly probed from a Fibonacci hash of the line number
// and deleted by backward shift, like the TLB index (internal/mmu), so
// no tombstones build up. The slot array comes from the table's free
// list on the first put, doubles when half full, and goes back to the
// list on release; once a machine has reached its peak occupancy the
// table allocates nothing.
type lineMap[V any] struct {
	// slots holds each member at or after its home slot; a zero key
	// marks an empty slot, so members store their line number plus one
	// and line 0 is a key like any other.
	slots []lineSlot[V]
	n     int
	shift uint // 64 - log2(len(slots))
	free  *freelist.List[lineSlot[V]]
}

type lineSlot[V any] struct {
	key uint64
	val V
}

// minLineMapSlots is the slot count of a table's first array.
const minLineMapSlots = 16

// The slot free lists, one per value type.
var (
	wbSlots  = freelist.New[lineSlot[wbBuf]](freelist.MachineBytes)
	txnSlots = freelist.New[lineSlot[*txn]](freelist.MachineBytes)
)

// wbBuf is a buffered writeback: the version in flight to memory, and
// in the top bit wbStale.
type wbBuf uint64

const (
	// wbStale marks a buffered writeback whose line has since been
	// granted exclusively to another agent: the writeback must still
	// reach memory, but the buffered data must neither satisfy local
	// loads nor supply later probes.
	wbStale wbBuf = 1 << 63
	// wbVerMask selects the version bits.
	wbVerMask = uint64(wbStale - 1)
)

// bufferedWB returns a fresh, current writeback of version ver. A
// version reaching the flag bit would corrupt it; at one store per
// tick it takes longer than any simulation can run.
func bufferedWB(ver uint64) wbBuf {
	if ver > wbVerMask {
		panic(fmt.Sprintf("coherence: writeback version %d does not fit 63 bits", ver))
	}
	return wbBuf(ver)
}

// stale reports whether the buffered writeback has been superseded.
func (b wbBuf) stale() bool { return b&wbStale != 0 }

// ver returns the buffered writeback's version.
func (b wbBuf) ver() uint64 { return uint64(b) & wbVerMask }

func newLineMap[V any](free *freelist.List[lineSlot[V]]) lineMap[V] {
	return lineMap[V]{free: free}
}

func lineKey(line memsys.Addr) uint64 { return memsys.LineNum(line) + 1 }

// home returns key's home slot.
func (m *lineMap[V]) home(key uint64) int {
	return int((key * 0x9e3779b97f4a7c15) >> m.shift)
}

// len returns the number of lines held.
func (m *lineMap[V]) len() int { return m.n }

// find returns the entry for line, or nil when the table does not hold
// it. The pointer is valid until the next put or del.
func (m *lineMap[V]) find(line memsys.Addr) *V {
	if m.n == 0 {
		return nil
	}
	key, mask := lineKey(line), len(m.slots)-1
	for i := m.home(key); ; i = (i + 1) & mask {
		switch m.slots[i].key {
		case key:
			return &m.slots[i].val
		case 0:
			return nil
		}
	}
}

// get returns line's entry and whether the table holds it.
func (m *lineMap[V]) get(line memsys.Addr) (V, bool) {
	if p := m.find(line); p != nil {
		return *p, true
	}
	var zero V
	return zero, false
}

// put sets line's entry, adding the line if the table does not hold it.
func (m *lineMap[V]) put(line memsys.Addr, v V) {
	if p := m.find(line); p != nil {
		*p = v
		return
	}
	if 2*(m.n+1) > len(m.slots) {
		m.grow()
	}
	m.insert(lineKey(line), v)
	m.n++
}

// insert places an absent key.
func (m *lineMap[V]) insert(key uint64, v V) {
	mask := len(m.slots) - 1
	i := m.home(key)
	for m.slots[i].key != 0 {
		i = (i + 1) & mask
	}
	m.slots[i] = lineSlot[V]{key: key, val: v}
}

// grow moves the members to an array twice the size (the first array
// has minLineMapSlots) and gives the old array back to the free list.
func (m *lineMap[V]) grow() {
	old := m.slots
	size := max(2*len(old), minLineMapSlots)
	m.slots = m.free.Get(size)
	m.shift = uint(64 - bits.TrailingZeros(uint(size)))
	for _, s := range old {
		if s.key != 0 {
			m.insert(s.key, s.val)
		}
	}
	if old != nil {
		m.free.Put(old)
	}
}

// del removes line if the table holds it. Later members of its probe
// run shift back so no lookup stops at the hole.
func (m *lineMap[V]) del(line memsys.Addr) {
	if m.n == 0 {
		return
	}
	key, mask := lineKey(line), len(m.slots)-1
	hole := m.home(key)
	for m.slots[hole].key != key {
		if m.slots[hole].key == 0 {
			return
		}
		hole = (hole + 1) & mask
	}
	for i := (hole + 1) & mask; m.slots[i].key != 0; i = (i + 1) & mask {
		// The member at i may fill the hole unless its home lies
		// cyclically in (hole, i]: then the hole is before its home.
		if h := m.home(m.slots[i].key); (i-h)&mask < (i-hole)&mask {
			continue
		}
		m.slots[hole] = m.slots[i]
		hole = i
	}
	m.slots[hole] = lineSlot[V]{}
	m.n--
}

// lines returns the held lines in address order. It allocates: dumps
// and snapshots call it, not the protocol.
func (m *lineMap[V]) lines() []memsys.Addr {
	out := make([]memsys.Addr, 0, m.n)
	for _, s := range m.slots {
		if s.key != 0 {
			out = append(out, memsys.Addr((s.key-1)<<memsys.LineShift))
		}
	}
	slices.Sort(out)
	return out
}

// release gives the slot array to the free list and leaves the table
// empty.
func (m *lineMap[V]) release() {
	if m.slots != nil {
		m.free.Put(m.slots)
	}
	m.slots, m.n, m.shift = nil, 0, 0
}
