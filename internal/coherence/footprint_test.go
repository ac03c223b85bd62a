package coherence

import (
	"testing"
	"unsafe"

	"dstore/internal/interconnect"
	"dstore/internal/memsys"
)

// TestFootprintSizes pins the per-line and per-packet sizes a machine
// pays for: a line-table entry is 8 bytes (the version alone), a
// packet's message body 32, and a whole packet fits the runtime's
// 96-byte size class.
func TestFootprintSizes(t *testing.T) {
	var tab lineTab
	if got := unsafe.Sizeof(*tab.at(lineAddr(0))); got != 8 {
		t.Errorf("a line-table entry is %d bytes, want 8", got)
	}
	if got := unsafe.Sizeof(msgBody{}); got != 32 {
		t.Errorf("msgBody is %d bytes, want 32", got)
	}
	if got := unsafe.Sizeof(pkt{}); got > 96 {
		t.Errorf("pkt is %d bytes, want at most 96", got)
	}
}

// TestMsgBodyRoundTrip requires every message type to come out of a
// packet body exactly as it went in, with every flag combination.
func TestMsgBodyRoundTrip(t *testing.T) {
	const addr, ver, seq = memsys.Addr(0x1234580), uint64(1)<<61 + 7, uint64(1)<<63 + 3
	port := interconnect.Port(-2)
	for _, typ := range []ReqType{GETS, GETX, WB, RemoteLoad} {
		m := ReqMsg{Type: typ, Addr: addr, From: port, Ver: ver}
		if b := reqBody(m); b.req() != m {
			t.Errorf("ReqMsg %+v came back as %+v", m, b.req())
		}
	}
	for _, kind := range []ProbeKind{PrbShare, PrbInv, PrbSnoop} {
		m := ProbeMsg{Kind: kind, Addr: addr, Requester: port}
		if b := probeBody(m); b.probe() != m {
			t.Errorf("ProbeMsg %+v came back as %+v", m, b.probe())
		}
	}
	for f := 0; f < 8; f++ {
		m := AckMsg{Addr: addr, From: port, HadData: f&1 != 0, Present: f&2 != 0, Dirty: f&4 != 0, Ver: ver}
		if b := ackBody(m); b.ack() != m {
			t.Errorf("AckMsg %+v came back as %+v", m, b.ack())
		}
	}
	for _, grant := range []State{I, S, O, M, MM} {
		for _, owned := range []bool{false, true} {
			m := DataMsg{Addr: addr, Ver: ver, Grant: grant, Owned: owned}
			if b := dataBody(m); b.data() != m {
				t.Errorf("DataMsg %+v came back as %+v", m, b.data())
			}
		}
	}
	m := PutxMsg{Addr: addr, Ver: ver, From: port, Seq: seq}
	if b := putxBody(m); b.putx() != m {
		t.Errorf("PutxMsg %+v came back as %+v", m, b.putx())
	}
	for _, nack := range []bool{false, true} {
		m := PushAckMsg{Addr: addr, Seq: seq, Nack: nack}
		if b := pushAckBody(m); b.pushAck() != m {
			t.Errorf("PushAckMsg %+v came back as %+v", m, b.pushAck())
		}
	}
}

// TestWritebackVersionGuard checks the packed writeback word: the
// largest version that fits keeps the stale flag readable, and one that
// would reach the flag bit panics.
func TestWritebackVersionGuard(t *testing.T) {
	b := bufferedWB(wbVerMask) | wbStale
	if !b.stale() || b.ver() != wbVerMask || b.snapFlags() != snapWB|snapWBStale {
		t.Fatalf("wb %#x: stale %v version %#x", uint64(b), b.stale(), b.ver())
	}
	b = bufferedWB(5) // a fresh writeback is not stale
	if b.stale() || b.ver() != 5 || b.snapFlags() != snapWB {
		t.Fatalf("fresh wb %#x: stale %v version %d", uint64(b), b.stale(), b.ver())
	}
	defer func() {
		if recover() == nil {
			t.Error("a writeback version of 2^63 did not panic")
		}
	}()
	bufferedWB(1 << 63)
}

// TestReleaseRecyclesPacketSlabs grows a memory controller's packet
// pool to two slabs, releases it, and requires a new controller to draw
// a released slab with every packet pointing at its new owner.
func TestReleaseRecyclesPacketSlabs(t *testing.T) {
	r := newRig(t, 4, 1024, 2)
	for i := 0; i <= pktSlab; i++ {
		r.mem.pkt(pkRecvAck)
	}
	if n := len(r.mem.pktSlabs); n != 2 {
		t.Fatalf("%d slabs after %d draws, want 2", n, pktSlab+1)
	}
	old := map[*pkt]bool{&r.mem.pktSlabs[0][0]: true, &r.mem.pktSlabs[1][0]: true}
	r.mem.Release()
	if r.mem.freePkt != nil || r.mem.pktSlabs != nil {
		t.Fatal("a released controller still holds packets")
	}

	r2 := newRig(t, 4, 1024, 2)
	pk := r2.mem.pkt(pkRecvAck)
	if !old[&r2.mem.pktSlabs[0][0]] {
		t.Fatal("the new controller did not draw a released slab")
	}
	for i := range r2.mem.pktSlabs[0] {
		if q := &r2.mem.pktSlabs[0][i]; q.m != r2.mem || q.c != nil || q.t != nil || q.req != nil {
			t.Fatalf("recycled packet %d: owner %p (want %p), c %p, t %p, req %p", i, q.m, r2.mem, q.c, q.t, q.req)
		}
	}
	if pk.kind != pkRecvAck {
		t.Errorf("drawn packet kind %d, want %d", pk.kind, pkRecvAck)
	}
	// The recycled pool still carries the protocol end to end.
	r2.do(r2.cpu, memsys.Store, lineAddr(9), 4)
	r2.do(r2.gpu, memsys.Load, lineAddr(9), 0)
	if got := r2.gpu.Ver(lineAddr(9)); got != 4 {
		t.Errorf("GPU reads version %d after the CPU stored 4, want 4", got)
	}
}
