package coherence

import (
	"math/rand"
	"slices"
	"testing"

	"dstore/internal/freelist"
	"dstore/internal/memsys"
)

func newTestMap() lineMap[uint64] {
	return newLineMap(freelist.New[lineSlot[uint64]](1 << 20))
}

// collidingLines returns n line numbers that share a home slot in a
// table of minLineMapSlots slots.
func collidingLines(n int) []uint64 {
	m := newTestMap()
	m.put(lineAddr(0), 0) // sizes the table so home() is defined
	want := m.home(lineKey(lineAddr(1)))
	out := []uint64{1}
	for line := uint64(2); len(out) < n; line++ {
		if m.home(lineKey(lineAddr(line))) == want {
			out = append(out, line)
		}
	}
	return out
}

// TestLineMapLineZero: line 0 is a key like any other, not the empty
// marker.
func TestLineMapLineZero(t *testing.T) {
	m := newTestMap()
	if m.find(lineAddr(0)) != nil {
		t.Fatal("an empty table holds line 0")
	}
	m.put(lineAddr(0), 0)
	m.put(lineAddr(1), 11)
	if v, ok := m.get(lineAddr(0)); !ok || v != 0 {
		t.Fatalf("line 0 reads %d, %v; want 0, true", v, ok)
	}
	m.del(lineAddr(0))
	if m.find(lineAddr(0)) != nil || m.len() != 1 {
		t.Fatalf("deleting line 0 left find %v, len %d", m.find(lineAddr(0)), m.len())
	}
	if v, _ := m.get(lineAddr(1)); v != 11 {
		t.Fatalf("line 1 reads %d after line 0 went, want 11", v)
	}
}

// TestLineMapDeleteMidRun deletes the middle member of a probe run:
// the backward shift must keep the member behind it reachable.
func TestLineMapDeleteMidRun(t *testing.T) {
	lines := collidingLines(3)
	m := newTestMap()
	for _, n := range lines {
		m.put(lineAddr(n), n*10)
	}
	m.del(lineAddr(lines[1]))
	m.del(lineAddr(lines[1])) // a second delete finds nothing
	if m.find(lineAddr(lines[1])) != nil {
		t.Fatal("the middle member is still held")
	}
	for _, n := range []uint64{lines[0], lines[2]} {
		if v, ok := m.get(lineAddr(n)); !ok || v != n*10 {
			t.Errorf("line %d reads %d, %v after the middle of its run went", n, v, ok)
		}
	}
	if home := m.home(lineKey(lineAddr(lines[0]))); m.slots[(home+1)&(len(m.slots)-1)].key != lineKey(lineAddr(lines[2])) {
		t.Error("the last member did not shift back into the hole")
	}
	held := 0
	for _, s := range m.slots {
		if s.key != 0 {
			held++
		}
	}
	if held != 2 || m.len() != 2 {
		t.Fatalf("%d slots in use, len %d; want 2 and 2", held, m.len())
	}
}

// TestLineMapGrowth fills a table far past its first array: every line
// stays reachable and the table keeps at least half its slots free.
func TestLineMapGrowth(t *testing.T) {
	m := newTestMap()
	const n = 5000
	for i := uint64(0); i < n; i++ {
		m.put(lineAddr(i*7), i)
	}
	if m.len() != n || len(m.slots) < 2*n {
		t.Fatalf("len %d in %d slots; want %d in at least %d", m.len(), len(m.slots), n, 2*n)
	}
	for i := uint64(0); i < n; i++ {
		if v, ok := m.get(lineAddr(i * 7)); !ok || v != i {
			t.Fatalf("line %d reads %d, %v after growth", i*7, v, ok)
		}
	}
}

// TestLineMapMatchesMap churns a table through random puts and deletes
// over few lines, so probe runs wrap and collide, and compares it with
// a Go map after every step.
func TestLineMapMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := newTestMap()
	ref := map[uint64]uint64{}
	for step := 0; step < 20000; step++ {
		line := uint64(rng.Intn(40))
		if rng.Intn(3) == 0 {
			m.del(lineAddr(line))
			delete(ref, line)
		} else {
			m.put(lineAddr(line), uint64(step))
			ref[line] = uint64(step)
		}
		if m.len() != len(ref) {
			t.Fatalf("step %d: len %d, want %d", step, m.len(), len(ref))
		}
		for l := uint64(0); l < 40; l++ {
			v, ok := m.get(lineAddr(l))
			if want, wantOK := ref[l]; ok != wantOK || v != want {
				t.Fatalf("step %d: line %d reads %d, %v; want %d, %v", step, l, v, ok, want, wantOK)
			}
		}
	}
}

// TestLineMapReuseAfterRelease: release returns the slot array to the
// free list, the next table draws it, and a table at its peak churns
// without allocating.
func TestLineMapReuseAfterRelease(t *testing.T) {
	free := freelist.New[lineSlot[uint64]](1 << 20)
	m := newLineMap(free)
	for i := uint64(0); i < 100; i++ {
		m.put(lineAddr(i), i)
	}
	slots := &m.slots[0]
	m.release()
	if m.len() != 0 || m.slots != nil || m.find(lineAddr(3)) != nil {
		t.Fatal("a released table still holds lines")
	}
	m2 := newLineMap(free)
	for i := uint64(0); i < 100; i++ {
		m2.put(lineAddr(i), i)
	}
	if &m2.slots[0] != slots {
		t.Fatal("the next table did not draw the released slot array")
	}
	if v, _ := m2.get(lineAddr(42)); v != 42 {
		t.Fatalf("recycled table reads %d for line 42", v)
	}
	next := uint64(100)
	if n := testing.AllocsPerRun(100, func() {
		m2.del(lineAddr(next - 100))
		m2.put(lineAddr(next), next)
		next++
	}); n != 0 {
		t.Errorf("a table at its peak allocated %v times per put and delete", n)
	}
}

// TestBusyLinesAscending: the ordering point's open lines come out in
// address order whatever order they opened in.
func TestBusyLinesAscending(t *testing.T) {
	r := newRig(t, 4, 1024, 2)
	var want []memsys.Addr
	for _, n := range []uint64{900, 3, 0, 77, 1 << 20, 12} {
		r.mem.busy.put(lineAddr(n), &txn{})
		want = append(want, lineAddr(n))
	}
	slices.Sort(want)
	if got := r.mem.busyLines(); !slices.Equal(got, want) {
		t.Fatalf("busyLines = %#x, want %#x", got, want)
	}
}
