package coherence

import (
	"dstore/internal/freelist"
	"dstore/internal/interconnect"
	"dstore/internal/memsys"
	"dstore/internal/sim"
)

// completeReq is the static completion trampoline: scheduling it with a
// *memsys.Request argument replaces the per-completion closure.
func completeReq(arg any, now sim.Tick) { arg.(*memsys.Request).Complete(now) }

// pktKind discriminates what a pooled coherence packet does when it
// fires.
type pktKind uint8

const (
	// Controller side.
	pkProcess      pktKind = iota // c.process(req) after port arbitration
	pkProcessQuiet                // c.processQuiet(req) replay
	pkRemoteLoad                  // c.remoteLoadStart(req) after port arbitration
	pkRecvData                    // c.receiveData(data)
	pkRecvProbe                   // c.receiveProbe(probe) network delivery
	pkAnswerProbe                 // c.answerProbe(probe) after lookup delay
	pkRecvPutx                    // c.ReceivePutx(putx, req) push delivery
	pkRecvPushAck                 // c.receivePushAck(ack) resilient push ack

	// Memory-controller side.
	pkRecvReq     // m.ReceiveRequest(rmsg)
	pkRecvAck     // m.ReceiveAck(ack)
	pkRecvUnblock // m.ReceiveUnblock(line)
	pkStart       // m.start(rmsg) dequeued follower
	pkDramDone    // the txn's DRAM access completed: TxnCore.DramComplete
	pkWBCommit    // writer-side writeback-commit notice delivery
)

// pkt is a pooled coherence event carrier: one recycled object stands
// in for the closure a message send or delayed handler used to
// allocate. Packets are drawn from the memory controller's shared pool
// (every Ctrl holds its MemCtrl), passed as the argument of a runPkt
// callback to the engine, a network or the DRAM, dispatched by runPkt,
// and released back to the pool after dispatch — steady state
// allocates nothing per message. A packet is delivered once, so a send
// that may be duplicated carries another argument (see deliverPush).
type pkt struct {
	m    *MemCtrl // pool owner; also the target of mem-side kinds
	c    *Ctrl
	t    *txn
	req  *memsys.Request
	next *pkt // the pool's free-list link
	body msgBody
	kind pktKind
}

// msgBody is the one message a packet carries, whichever its kind:
// every protocol message fits these 32 bytes.
type msgBody struct {
	addr memsys.Addr       // the message's Addr; pkRecvUnblock's line
	ver  uint64            // Ver; the txn generation of pkDramDone
	seq  uint64            // PutxMsg.Seq or PushAckMsg.Seq
	port interconnect.Port // From, or ProbeMsg.Requester
	kind uint8             // ReqMsg.Type, ProbeMsg.Kind or DataMsg.Grant
	bits uint8             // AckMsg's HadData/Present/Dirty, DataMsg.Owned, PushAckMsg.Nack
}

// The bits of msgBody.bits.
const (
	bodyHadData = 1 << iota
	bodyPresent
	bodyDirty
	bodyOwned = bodyHadData
	bodyNack  = bodyHadData
)

// bitIf returns bit when b is set, else 0.
func bitIf(b bool, bit uint8) uint8 {
	if b {
		return bit
	}
	return 0
}

func reqBody(m ReqMsg) msgBody {
	return msgBody{addr: m.Addr, ver: m.Ver, port: m.From, kind: uint8(m.Type)}
}

func (b *msgBody) req() ReqMsg {
	return ReqMsg{Type: ReqType(b.kind), Addr: b.addr, From: b.port, Ver: b.ver}
}

func probeBody(m ProbeMsg) msgBody {
	return msgBody{addr: m.Addr, port: m.Requester, kind: uint8(m.Kind)}
}

func (b *msgBody) probe() ProbeMsg {
	return ProbeMsg{Kind: ProbeKind(b.kind), Addr: b.addr, Requester: b.port}
}

func ackBody(m AckMsg) msgBody {
	return msgBody{addr: m.Addr, ver: m.Ver, port: m.From,
		bits: bitIf(m.HadData, bodyHadData) | bitIf(m.Present, bodyPresent) | bitIf(m.Dirty, bodyDirty)}
}

func (b *msgBody) ack() AckMsg {
	return AckMsg{Addr: b.addr, From: b.port, Ver: b.ver,
		HadData: b.bits&bodyHadData != 0, Present: b.bits&bodyPresent != 0, Dirty: b.bits&bodyDirty != 0}
}

func dataBody(m DataMsg) msgBody {
	return msgBody{addr: m.Addr, ver: m.Ver, kind: m.Grant, bits: bitIf(m.Owned, bodyOwned)}
}

func (b *msgBody) data() DataMsg {
	return DataMsg{Addr: b.addr, Ver: b.ver, Grant: b.kind, Owned: b.bits&bodyOwned != 0}
}

func putxBody(m PutxMsg) msgBody {
	return msgBody{addr: m.Addr, ver: m.Ver, seq: m.Seq, port: m.From}
}

func (b *msgBody) putx() PutxMsg {
	return PutxMsg{Addr: b.addr, Ver: b.ver, From: b.port, Seq: b.seq}
}

func pushAckBody(m PushAckMsg) msgBody {
	return msgBody{addr: m.Addr, seq: m.Seq, bits: bitIf(m.Nack, bodyNack)}
}

func (b *msgBody) pushAck() PushAckMsg {
	return PushAckMsg{Addr: b.addr, Seq: b.seq, Nack: b.bits&bodyNack != 0}
}

// pktSlab is how many packets the pool allocates at once. Slabs come
// from pktSlabs and go back to it when the machine is released.
const pktSlab = 256

var pktSlabs = freelist.New[pkt](freelist.MachineBytes)

// pkt draws a packet from the pool. Fields from a previous use are not
// zeroed: each kind reads only the fields its sender set.
func (m *MemCtrl) pkt(kind pktKind) *pkt {
	if m.freePkt == nil {
		m.growPkts()
	}
	pk := m.freePkt
	m.freePkt = pk.next
	pk.kind = kind
	return pk
}

// growPkts adds one slab of packets to the pool.
func (m *MemCtrl) growPkts() {
	slab := pktSlabs.Get(pktSlab)
	m.pktSlabs = append(m.pktSlabs, slab)
	for i := range slab {
		slab[i].m = m
		if i+1 < len(slab) {
			slab[i].next = &slab[i+1]
		}
	}
	m.freePkt = &slab[0]
}

// runPkt is the single static dispatch function for all packets. The
// packet is released after dispatch: it is not in the pool while its
// handler runs, so handlers are free to draw new packets.
func runPkt(arg any, now sim.Tick) {
	pk := arg.(*pkt)
	m := pk.m
	switch pk.kind {
	case pkProcess:
		pk.c.process(pk.req)
	case pkProcessQuiet:
		pk.c.processQuiet(pk.req)
	case pkRemoteLoad:
		pk.c.remoteLoadStart(pk.req)
	case pkRecvData:
		pk.c.receiveData(pk.body.data())
	case pkRecvProbe:
		pk.c.receiveProbe(pk.body.probe())
	case pkAnswerProbe:
		pk.c.answerProbe(pk.body.probe())
	case pkRecvPutx:
		pk.c.ReceivePutx(pk.body.putx(), pk.req)
	case pkRecvPushAck:
		pk.c.receivePushAck(pk.body.pushAck())
	case pkRecvReq:
		m.ReceiveRequest(pk.body.req())
	case pkRecvAck:
		m.ReceiveAck(pk.body.ack())
	case pkRecvUnblock:
		m.ReceiveUnblock(pk.body.addr)
	case pkStart:
		m.start(pk.body.req())
	case pkDramDone:
		// The speculative DRAM read can outlive its transaction (an
		// owner supplied the data and the transaction closed); a stale
		// generation means the txn was recycled and the read is a no-op.
		if pk.t.gen == pk.body.ver {
			m.apply(pk.t, pk.t.DramComplete(), nil)
		}
	case pkWBCommit:
		if p := m.peers[pk.body.port]; p != nil {
			p.writebackDone(pk.body.addr, pk.body.ver)
		}
	}
	pk.c, pk.t, pk.req = nil, nil, nil
	pk.next = m.freePkt
	m.freePkt = pk
}
