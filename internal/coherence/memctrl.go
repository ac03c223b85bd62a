package coherence

import (
	"fmt"
	"strings"

	"dstore/internal/dram"
	"dstore/internal/interconnect"
	"dstore/internal/memsys"
	"dstore/internal/obs"
	"dstore/internal/sim"
	"dstore/internal/stats"
)

// MemCtrl is the memory controller and coherence ordering point. It
// serialises transactions per line, broadcasts probes to the peer
// caches that could hold a copy (Hammer has no directory), collects
// acknowledgements, sources data from the owning cache or DRAM, and
// applies writebacks.
type MemCtrl struct {
	engine *sim.Engine
	name   string
	port   interconnect.Port
	xbar   interconnect.Network
	dram   *dram.DRAM

	// peers maps a network port to the controller behind it (nil for
	// ports that are not cache controllers, such as this one's own).
	peers []*Ctrl
	// probeTargets returns the ports of the peers that must be probed
	// for a line, excluding the requester. The paper's topology has two
	// coherent agents per line: the CPU cache complex and the GPU L2
	// slice owning the address. The returned slice is only read.
	probeTargets func(addr memsys.Addr, requester interconnect.Port) []interconnect.Port

	// busy maps each line with an open transaction to it: a small
	// table (see lineMap) holding only the open ones. queued maps a
	// line to the requests that collided with its open transaction.
	// dramVer is the dense memory-version table over every line (see
	// lineTab).
	busy    lineMap[*txn]
	queued  map[memsys.Addr][]ReqMsg
	dramVer lineTab

	// freePkt heads the shared coherence packet pool (see pkt.go),
	// whose packets live in pktSlabs; txnPool recycles transactions.
	freePkt  *pkt
	pktSlabs [][]pkt
	txnPool  []*txn

	// regions, when non-nil, filters probes HSC-style (see
	// RegionDirectory).
	regions *RegionDirectory

	// Per-transaction watchdog (EnableWatchdog). wdInterval zero means
	// disabled: no scan events are ever scheduled, so the event
	// sequence is untouched.
	wdInterval sim.Tick
	wdLimit    sim.Tick
	wdOnStuck  func(error)
	wdArmed    bool
	wdTripped  bool

	// Observability (AttachObserver): nil in normal operation.
	obs   *obs.Observer
	obsID obs.CompID

	ctr MemCounters
}

// txn is one in-flight transaction: the request it serves, its age for
// the watchdog, and the protocol core that decides every step.
type txn struct {
	req     ReqMsg
	started sim.Tick
	// gen is bumped when the transaction is recycled, so a speculative
	// DRAM read that outlives its transaction (pkDramDone) can detect
	// that its txn pointer is stale and fizzle.
	gen uint64
	TxnCore
}

// NewMemCtrl builds the controller. probeTargets defines the broadcast
// set per line, as ports of xbar.
func NewMemCtrl(engine *sim.Engine, name string, xbar interconnect.Network, d *dram.DRAM,
	probeTargets func(addr memsys.Addr, requester interconnect.Port) []interconnect.Port) *MemCtrl {
	return &MemCtrl{
		engine:       engine,
		name:         name,
		port:         xbar.Port(name),
		xbar:         xbar,
		dram:         d,
		probeTargets: probeTargets,
		busy:         newLineMap(txnSlots),
		queued:       make(map[memsys.Addr][]ReqMsg),
		dramVer:      newLineTab(0, 0),
	}
}

// Release gives the ordering point's line-table pages, transaction
// slots and packet slabs to their free lists, under the same rule as
// Ctrl.Release.
func (m *MemCtrl) Release() {
	m.busy.release()
	m.dramVer.release()
	for _, slab := range m.pktSlabs {
		pktSlabs.Put(slab)
	}
	m.freePkt, m.pktSlabs = nil, nil
}

// Name returns the controller's crossbar port name.
func (m *MemCtrl) Name() string { return m.name }

// MemCounters are the memory controller's request and data-source counts.
type MemCounters struct {
	Requests                                                   uint64
	RequestsGETS, RequestsGETX, RequestsWB, RequestsRemoteLoad uint64
	ProbesSent, Writebacks, DataFromPeer, DataFromDRAM         uint64
}

// Rows lists the counters by name, in dump and snapshot order.
func (c *MemCounters) Rows() stats.Rows {
	return stats.Rows{
		{Name: "requests", N: &c.Requests},
		{Name: "requests_gets", N: &c.RequestsGETS},
		{Name: "requests_getx", N: &c.RequestsGETX},
		{Name: "requests_wb", N: &c.RequestsWB},
		{Name: "requests_remote_load", N: &c.RequestsRemoteLoad},
		{Name: "probes_sent", N: &c.ProbesSent},
		{Name: "writebacks", N: &c.Writebacks},
		{Name: "data_from_peer", N: &c.DataFromPeer},
		{Name: "data_from_dram", N: &c.DataFromDRAM},
	}
}

// Get returns the named counter; an undeclared name panics.
func (c *MemCounters) Get(name string) uint64 { return c.Rows().Get(name) }

// Counters exposes the controller's counters.
func (m *MemCtrl) Counters() *MemCounters { return &m.ctr }

// AddPeer registers a cache controller so probes and data can be
// delivered to it.
func (m *MemCtrl) AddPeer(c *Ctrl) {
	for int(c.port) >= len(m.peers) {
		m.peers = append(m.peers, nil)
	}
	m.peers[c.port] = c
}

// peerName names the controller at port p, for diagnostics.
func (m *MemCtrl) peerName(p interconnect.Port) string { return m.xbar.PortName(p) }

// AttachRegionDirectory enables HSC-style probe filtering.
func (m *MemCtrl) AttachRegionDirectory(r *RegionDirectory) { m.regions = r }

// AttachObserver connects the ordering point to the observability
// layer: probe, grant and data sends record against its component.
func (m *MemCtrl) AttachObserver(o *obs.Observer) {
	if o == nil {
		return
	}
	m.obs = o
	m.obsID = o.Component(m.name)
}

// MemVer returns the version memory holds for a line (the oracle's view
// of DRAM contents). It never allocates.
func (m *MemCtrl) MemVer(a memsys.Addr) uint64 { return m.dramVer.get(memsys.LineAlign(a)) }

// ReceiveRequest is invoked when a request message arrives (the caller
// has already paid the network delay).
func (m *MemCtrl) ReceiveRequest(req ReqMsg) {
	m.ctr.Requests++
	switch req.Type {
	case GETS:
		m.ctr.RequestsGETS++
	case GETX:
		m.ctr.RequestsGETX++
	case WB:
		m.ctr.RequestsWB++
	case RemoteLoad:
		m.ctr.RequestsRemoteLoad++
	}
	line := memsys.LineAlign(req.Addr)
	req.Addr = line
	if m.busy.find(line) != nil {
		m.queued[line] = append(m.queued[line], req)
		return
	}
	m.start(req)
}

// newTxn draws a transaction from the pool; the generation survives
// recycling (see txn.gen).
func (m *MemCtrl) newTxn(req ReqMsg) *txn {
	var t *txn
	if n := len(m.txnPool); n > 0 {
		t = m.txnPool[n-1]
		m.txnPool = m.txnPool[:n-1]
		t.req = req
		t.started = m.engine.Now()
	} else {
		t = &txn{req: req, started: m.engine.Now()}
	}
	return t
}

func (m *MemCtrl) start(req ReqMsg) {
	line := req.Addr
	t := m.newTxn(req)
	m.busy.put(line, t)
	m.armWatchdog()

	var targets []interconnect.Port
	if req.Type != WB {
		targets = m.probeTargets(line, req.From)
		if m.regions != nil && len(targets) > 0 && m.regions.Filter(line, m.peerName(req.From), req.Type) {
			targets = nil
		}
	}
	m.apply(t, t.Start(req.Type, len(targets)), targets)
}

// apply carries out the effects a TxnCore event returned, in the core's
// order. targets are the probe targets (transaction start only).
func (m *MemCtrl) apply(t *txn, eff TxnEffect, targets []interconnect.Port) {
	line := t.req.Addr
	if eff&TxDramWrite != 0 {
		m.ctr.Writebacks++
		m.dramVer.set(line, t.req.Ver)
		m.dramAccess(t, true)
	}
	if eff&TxDramRead != 0 {
		m.dramAccess(t, false)
	}
	if eff&TxProbe != 0 {
		kind, ok := ProbeFor(t.req.Type)
		if !ok {
			panic(fmt.Sprintf("coherence: no probe kind for %v", t.req.Type))
		}
		for _, tgt := range targets {
			m.ctr.ProbesSent++
			if m.obs != nil {
				m.obs.Msg(m.engine.Now(), m.obsID, obs.MsgProbe, line, m.obs.Component(m.peerName(tgt)))
			}
			pk := m.pkt(pkRecvProbe)
			pk.c = m.peers[tgt]
			pk.body = probeBody(ProbeMsg{Kind: kind, Addr: line, Requester: t.req.From})
			m.xbar.Send(m.port, tgt, interconnect.CtrlMsgBytes, runPkt, pk)
		}
	}
	if eff&TxOwnerData != 0 {
		// Owner-to-requester transfer already in flight (Hammer is
		// 3-hop); the speculative DRAM read, if any, is discarded.
		m.ctr.DataFromPeer++
	}
	if eff&TxGrant != 0 {
		// No owner: the simulator's stores are line-granular, so the
		// write fully overwrites the line and a fetch-on-write would be
		// wasted bandwidth; the grant travels as a control message.
		m.sendData(t, obs.MsgGrant, interconnect.CtrlMsgBytes)
	}
	if eff&TxMemData != 0 {
		m.ctr.DataFromDRAM++
		m.sendData(t, obs.MsgData, interconnect.DataMsgBytes)
	}
	if eff&TxWBDone != 0 {
		pk := m.pkt(pkWBCommit)
		pk.body = reqBody(t.req)
		m.xbar.Send(m.port, t.req.From, interconnect.CtrlMsgBytes, runPkt, pk)
	}
	if eff&TxFinish != 0 {
		m.finish(line)
	}
}

// dramAccess starts the transaction's DRAM access; the completion packet
// pins the transaction generation so a speculative read outliving its
// transaction fizzles instead of corrupting the txn's successor.
func (m *MemCtrl) dramAccess(t *txn, write bool) {
	pk := m.pkt(pkDramDone)
	pk.t, pk.body.ver = t, t.gen
	m.dram.Access(t.req.Addr, write, runPkt, pk)
}

// ReceiveAck collects a probe acknowledgement.
func (m *MemCtrl) ReceiveAck(a AckMsg) {
	line := memsys.LineAlign(a.Addr)
	t, ok := m.busy.get(line)
	if !ok {
		panic(fmt.Sprintf("coherence: ack for idle line %#x", uint64(line)))
	}
	m.apply(t, t.Ack(a.HadData, a.Present), nil)
}

// sendData answers the requester from memory with the core's grant: a
// data message, or a control-sized grant when no data travels.
func (m *MemCtrl) sendData(t *txn, class obs.MsgClass, size int) {
	d := DataMsg{Addr: t.req.Addr, Ver: m.dramVer.get(t.req.Addr), Grant: t.MemGrant()}
	requester := t.req.From
	if m.obs != nil {
		m.obs.Msg(m.engine.Now(), m.obsID, class, d.Addr, m.obs.Component(m.peerName(requester)))
	}
	pk := m.pkt(pkRecvData)
	pk.c, pk.body = m.peers[requester], dataBody(d)
	m.xbar.Send(m.port, requester, size, runPkt, pk)
}

// ReceiveUnblock records the requester's completion notice.
func (m *MemCtrl) ReceiveUnblock(a memsys.Addr) {
	line := memsys.LineAlign(a)
	t, ok := m.busy.get(line)
	if !ok {
		panic(fmt.Sprintf("coherence: unblock for idle line %#x", uint64(line)))
	}
	m.apply(t, t.Unblock(), nil)
}

func (m *MemCtrl) finish(line memsys.Addr) {
	t, ok := m.busy.get(line)
	if !ok {
		panic(fmt.Sprintf("coherence: finish on idle line %#x", uint64(line)))
	}
	m.busy.del(line)
	// Invalidate any speculative-fetch packet still in flight for this
	// transaction, then recycle it.
	t.gen++
	m.txnPool = append(m.txnPool, t)
	if q := m.queued[line]; len(q) > 0 {
		next := q[0]
		if len(q) == 1 {
			delete(m.queued, line)
		} else {
			m.queued[line] = q[1:]
		}
		// Start in a fresh event so completion cascades settle first.
		pk := m.pkt(pkStart)
		pk.body = reqBody(next)
		m.engine.ScheduleArg(0, runPkt, pk)
	}
}

// Idle reports whether no transaction is in flight (test hook).
func (m *MemCtrl) Idle() bool { return m.busy.len() == 0 }

// EnableWatchdog arms the per-transaction watchdog: every interval
// ticks (while transactions are in flight) the controller scans its
// busy set, and a transaction older than limit fails the run through
// onStuck with a full transaction dump — turning a would-be hang into a
// diagnosis. A nil onStuck panics instead. The scan is self-limiting:
// it only reschedules while transactions remain in flight, so a
// drained system still drains and the watchdog never keeps the event
// queue alive on its own.
func (m *MemCtrl) EnableWatchdog(interval, limit sim.Tick, onStuck func(error)) {
	if interval <= 0 || limit <= 0 {
		panic(fmt.Sprintf("coherence: non-positive watchdog interval %d / limit %d", interval, limit))
	}
	m.wdInterval = interval
	m.wdLimit = limit
	m.wdOnStuck = onStuck
	m.armWatchdog()
}

func (m *MemCtrl) armWatchdog() {
	if m.wdInterval == 0 || m.wdArmed || m.wdTripped || m.busy.len() == 0 {
		return
	}
	m.wdArmed = true
	m.engine.Schedule(m.wdInterval, m.watchdogScan)
}

func (m *MemCtrl) watchdogScan() {
	m.wdArmed = false
	if m.wdTripped || m.busy.len() == 0 {
		return
	}
	now := m.engine.Now()
	for _, line := range m.busyLines() {
		t, _ := m.busy.get(line)
		if age := now - t.started; age > m.wdLimit {
			m.wdTripped = true
			err := fmt.Errorf(
				"coherence: transaction for line %#x (%s from %s) stuck for %d ticks (limit %d)\n%s",
				uint64(line), t.req.Type, m.peerName(t.req.From), age, m.wdLimit, m.TransactionDump())
			if m.wdOnStuck == nil {
				panic(err)
			}
			m.wdOnStuck(err)
			return
		}
	}
	m.armWatchdog()
}

// busyLines returns the in-flight lines in address order, so every dump
// and scan is deterministic.
func (m *MemCtrl) busyLines() []memsys.Addr { return m.busy.lines() }

// TransactionDump renders every in-flight transaction and its queue in
// address order: the diagnosis attached to watchdog trips and push
// retry exhaustion.
func (m *MemCtrl) TransactionDump() string {
	var b strings.Builder
	now := m.engine.Now()
	fmt.Fprintf(&b, "transaction dump at tick %d: %d in flight\n", now, m.busy.len())
	for _, line := range m.busyLines() {
		t, _ := m.busy.get(line)
		fmt.Fprintf(&b,
			"  line %#x: %s from %s, age %d, acks %d/%d, probesClean=%v dramDone=%v dataSent=%v, %d queued\n",
			uint64(line), t.req.Type, m.peerName(t.req.From), now-t.started, t.AcksRecv, t.AcksWanted,
			t.Flags&TxnProbesClean != 0, t.Flags&TxnDramDone != 0, t.Flags&TxnDataSent != 0, len(m.queued[line]))
	}
	return b.String()
}
