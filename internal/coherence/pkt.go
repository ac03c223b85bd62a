package coherence

import (
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
// (every Ctrl holds its MemCtrl), scheduled through the engine's or
// network's static-function variants, dispatched by runPkt, and
// released back to the pool after dispatch — steady state allocates
// nothing per message.
type pkt struct {
	m    *MemCtrl // pool owner; also the target of mem-side kinds
	kind pktKind

	c    *Ctrl
	t    *txn
	gen  uint64 // txn generation pinned at schedule time (pkDramDone)
	req  *memsys.Request
	line memsys.Addr

	rmsg  ReqMsg
	probe ProbeMsg
	ack   AckMsg
	data  DataMsg
	putx  PutxMsg
}

// pkt draws a packet from the pool. Fields from a previous use are not
// zeroed: each kind reads only the fields its sender set.
func (m *MemCtrl) pkt(kind pktKind) *pkt {
	var pk *pkt
	if n := len(m.pkts); n > 0 {
		pk = m.pkts[n-1]
		m.pkts = m.pkts[:n-1]
	} else {
		pk = &pkt{m: m} //dstore:allow-alloc pool refill, amortized to zero in steady state
	}
	pk.kind = kind
	return pk
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
		pk.c.receiveData(pk.data)
	case pkRecvProbe:
		pk.c.receiveProbe(pk.probe)
	case pkAnswerProbe:
		pk.c.answerProbe(pk.probe)
	case pkRecvPutx:
		pk.c.ReceivePutx(pk.putx, pk.req)
	case pkRecvReq:
		m.ReceiveRequest(pk.rmsg)
	case pkRecvAck:
		m.ReceiveAck(pk.ack)
	case pkRecvUnblock:
		m.ReceiveUnblock(pk.line)
	case pkStart:
		m.start(pk.rmsg)
	case pkDramDone:
		// The speculative DRAM read can outlive its transaction (an
		// owner supplied the data and the transaction closed); a stale
		// generation means the txn was recycled and the read is a no-op.
		if pk.t.gen == pk.gen {
			m.apply(pk.t, pk.t.DramComplete(), nil)
		}
	case pkWBCommit:
		if p := m.peers[pk.rmsg.From]; p != nil {
			p.writebackDone(pk.rmsg.Addr, pk.rmsg.Ver)
		}
	}
	pk.c, pk.t, pk.req = nil, nil, nil
	m.pkts = append(m.pkts, pk)
}
