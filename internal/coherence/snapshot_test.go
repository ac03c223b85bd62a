package coherence

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"

	"dstore/internal/snap"
)

// snapRecord is one line-table record of a controller snapshot.
type snapRecord struct {
	line, ver, wbVer uint64
	flags            uint8
}

// TestSnapshotBufferedStaleWriteback round-trips a controller holding
// buffered writebacks, stale and current, beside plain versions. The
// stream carries one (line, ver, wbVer, flags) record per line in line
// order, merging the two tables, and the restored controller holds the
// same entries and writes the same bytes.
func TestSnapshotBufferedStaleWriteback(t *testing.T) {
	r := newRig(t, 4, 1024, 2)
	c := r.cpu
	c.lines.set(lineAddr(2), 4)
	c.lines.set(lineAddr(9), 6)
	c.wb.put(lineAddr(20), bufferedWB(1))
	c.wb.put(lineAddr(9), bufferedWB(5)|wbStale)
	c.wb.put(lineAddr(7), bufferedWB(2)|wbStale)
	c.wb.put(lineAddr(0), bufferedWB(8))
	want := []snapRecord{{0, 0, 8, 1}, {2, 4, 0, 0}, {7, 0, 2, 3}, {9, 6, 5, 3}, {20, 0, 1, 1}}

	var w snap.Writer
	c.SnapshotTo(&w)
	blob := slices.Clone(w.Bytes())
	// The header before the writeback count: tag, name, quiet flag and
	// port cursor.
	var head snap.Writer
	head.Tag("ctrl")
	head.String(c.Name())
	head.Bool(true)
	head.I64(int64(c.portFree))
	wbCountAt := head.Len()
	if !bytes.HasPrefix(blob, head.Bytes()) {
		t.Fatal("the snapshot does not start with the controller header")
	}
	rd := snap.NewReader(blob[wbCountAt:])
	if n := rd.U32(); n != 4 {
		t.Errorf("snapshot counts %d buffered writebacks, want 4", n)
	}
	got := make([]snapRecord, rd.U32())
	for i := range got {
		got[i] = snapRecord{rd.U64(), rd.U64(), rd.U64(), rd.U8()}
	}
	if rd.Err() != nil || !slices.Equal(got, want) {
		t.Fatalf("records %v (err %v), want %v", got, rd.Err(), want)
	}

	r2 := newRig(t, 4, 1024, 2)
	if err := restoreCtrl(r2.cpu, blob); err != nil {
		t.Fatal(err)
	}
	if r2.cpu.WBBufLen() != 4 || r2.cpu.Ver(lineAddr(9)) != 6 || r2.cpu.Ver(lineAddr(2)) != 4 {
		t.Errorf("restored %d writebacks, versions %d and %d", r2.cpu.WBBufLen(), r2.cpu.Ver(lineAddr(9)), r2.cpu.Ver(lineAddr(2)))
	}
	if b, _ := r2.cpu.wb.get(lineAddr(9)); !b.stale() || b.ver() != 5 {
		t.Errorf("line 9's writeback restored as version %d, stale %v", b.ver(), b.stale())
	}
	var w2 snap.Writer
	r2.cpu.SnapshotTo(&w2)
	if !bytes.Equal(w2.Bytes(), blob) {
		t.Error("the restored controller writes different bytes")
	}

	// A writeback count that disagrees with the records fails.
	binary.LittleEndian.PutUint32(blob[wbCountAt:], 3)
	if err := restoreCtrl(newRig(t, 4, 1024, 2).cpu, blob); err == nil {
		t.Error("a snapshot with a wrong writeback count restored")
	}
}

func restoreCtrl(c *Ctrl, blob []byte) error {
	rd := snap.NewReader(blob)
	c.RestoreFrom(rd)
	return rd.Done()
}
