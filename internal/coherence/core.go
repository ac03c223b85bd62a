package coherence

// This file is the protocol's transition core: the rules the cache
// controllers (ctrl.go), the ordering point (memctrl.go) and the model
// checker (internal/modelcheck) all execute. Each function is pure over
// value types — no engine, no timing, no allocation — and maps a line's
// state, one event and the line-local context to the next state plus
// the effects to carry out. The controllers read the context from their
// arrays and schedule the sends on the engine; the checker reads it from
// its packed state and adds the sends to its message multiset.

// WBBuf is the condition of a probed line's writeback-buffer entry.
type WBBuf uint8

// Writeback-buffer conditions.
const (
	WBNone WBBuf = iota
	// WBLive: a dirty eviction is in flight to memory, and the buffer
	// stays a data source until memory commits it.
	WBLive
	// WBStale: the line has since been granted exclusively elsewhere;
	// the writeback still reaches memory but supplies nobody.
	WBStale
)

// ProbeCtx is the line-local context a probe is answered against.
type ProbeCtx struct {
	St    State // resident state, I when absent
	Dirty bool
	WB    WBBuf
	// LiveOlder reports the resident copy is older than the buffered
	// writeback. A copy re-acquired and re-dirtied while the writeback
	// is in flight is newer and answers from the cache.
	LiveOlder bool
}

// ProbeReply is a probed agent's reaction.
type ProbeReply struct {
	// FromWB: the writeback buffer answered with its version and the
	// resident copy is untouched. StaleWB: an invalidating probe handed
	// the data-source role to the requester, so the entry goes stale.
	FromWB, StaleWB bool
	// Ev is the table row consulted when !FromWB; Next is the copy's
	// next state.
	Ev   Event
	Next State
	// The ack's flags. HadData also sends the data straight to the
	// requester (3-hop) with Grant; Owned moves the writeback duty.
	HadData, Present, Dirty bool
	Grant                   State
	Owned                   bool
}

// AnswerProbe is the probe reaction: a live writeback buffer answers
// first (the agent is still the data source) unless the agent holds a
// newer owned copy; everything else is a row of the transition table.
func AnswerProbe(c ProbeCtx, k ProbeKind) ProbeReply {
	if owned := c.St == MM || c.St == M || c.St == O; c.WB == WBLive && (!owned || c.LiveOlder) {
		r := ProbeReply{FromWB: true, StaleWB: k == PrbInv, Next: c.St, HadData: true, Dirty: true}
		r.Grant, r.Owned = supplyGrant(k, true)
		return r
	}
	out := Transition(c.St, ProbeEvent(k))
	r := ProbeReply{Ev: ProbeEvent(k), Next: out.Next, Present: out.Present}
	if out.Data != NoData {
		r.HadData, r.Dirty = true, DataDirty(out.Data, c.Dirty)
		r.Grant, r.Owned = supplyGrant(k, r.Dirty)
	}
	return r
}

// supplyGrant is the grant of an owner's 3-hop transfer: a share leaves
// the writeback duty with the old owner (now O), an invalidation moves
// dirty data's duty to the requester, a snoop's data is uncacheable.
func supplyGrant(k ProbeKind, dirty bool) (grant State, owned bool) {
	switch k {
	case PrbShare:
		return GrantState(GETS, true, false), false
	case PrbInv:
		return GrantState(GETX, true, false), dirty
	default:
		return GrantState(RemoteLoad, true, false), false
	}
}

// TxnCore is the ordering point's per-line transaction. It holds only
// uint8 fields so the model checker can pack it into its state. Each
// method takes one event and returns the effects to carry out.
type TxnCore struct {
	Typ                  ReqType
	AcksWanted, AcksRecv uint8
	Flags                uint8 // Txn* bits
}

// TxnCore flag bits.
const (
	TxnOwnerSupplied uint8 = 1 << iota // an ack reported an owner's transfer
	TxnSharerSeen                      // an ack reported a copy surviving the probe
	TxnProbesClean                     // every ack is in and no owner supplied
	TxnDramPending                     // a DRAM read or writeback commit is outstanding
	TxnDramDone                        // the speculative read completed
	TxnDataSent                        // the ordering point answered the requester
	TxnUnblocked                       // the requester's completion notice arrived
)

// TxnEffect is a set of effects, carried out in bit order.
type TxnEffect uint8

// Transaction effects.
const (
	TxDramWrite TxnEffect = 1 << iota // memory takes the writeback's version; start the DRAM write
	TxDramRead                        // start the speculative read racing the probes
	TxProbe                           // send ProbeFor(Typ) to every probe target
	TxOwnerData                       // all acks in; an owner supplied the requester
	TxGrant                           // send the data-less grant MemGrant() (full-line write)
	TxMemData                         // send memory's data with grant MemGrant()
	TxWBDone                          // tell the writer its writeback committed
	TxFinish                          // close the transaction
)

// Start begins a transaction for a request with the given number of
// probe targets. A writeback updates memory at once and waits only for
// DRAM. Reads and upgrades probe every target, with a speculative DRAM
// read racing the probes for all but GETX. With no targets (a
// standalone agent, or a region-filtered probe) the probes are clean at
// once: GETX is granted immediately, reads wait for DRAM.
func (t *TxnCore) Start(typ ReqType, targets int) TxnEffect {
	*t = TxnCore{Typ: typ}
	if typ == WB {
		t.Flags = TxnDramPending
		return TxDramWrite
	}
	if targets > 255 {
		panic("coherence: more than 255 probe targets")
	}
	t.AcksWanted = uint8(targets)
	eff := TxProbe
	if targets == 0 {
		t.Flags, eff = TxnProbesClean, 0
		if typ == GETX {
			t.Flags |= TxnDataSent
			return TxGrant
		}
	}
	if typ != GETX {
		t.Flags |= TxnDramPending
		eff |= TxDramRead
	}
	return eff
}

// Ack collects one probe ack. Once all are in, either an owner's
// transfer is on its way (the speculative read is discarded) or memory
// answers: GETX with its grant alone, a read with DRAM's data once the
// read completes.
func (t *TxnCore) Ack(hadData, present bool) TxnEffect {
	t.AcksRecv++
	if hadData {
		t.Flags |= TxnOwnerSupplied | TxnSharerSeen
	}
	if present {
		t.Flags |= TxnSharerSeen
	}
	if t.AcksRecv < t.AcksWanted {
		return 0
	}
	var eff TxnEffect
	switch {
	case t.Flags&TxnOwnerSupplied != 0:
		t.Flags &^= TxnDramPending
		eff = TxOwnerData
	case t.Typ == GETX:
		t.Flags |= TxnProbesClean | TxnDataSent
		eff = TxGrant
	default:
		t.Flags |= TxnProbesClean
		eff = t.memData()
	}
	return eff | t.finish()
}

// DramComplete completes the DRAM access: a writeback's commit notifies
// the writer and closes the transaction; a speculative read answers the
// requester if the probes came back clean.
func (t *TxnCore) DramComplete() TxnEffect {
	if t.Typ == WB {
		return TxWBDone | TxFinish
	}
	t.Flags |= TxnDramDone
	return t.memData()
}

// Unblock records the requester's completion notice. The transaction
// closes once the unblock and every ack have arrived: acks normally
// beat the unblock, but delivery jitter can invert the race, and a
// straggling ack must not leak into the line's next transaction.
func (t *TxnCore) Unblock() TxnEffect {
	t.Flags |= TxnUnblocked
	return t.finish()
}

// DramOutstanding reports whether the transaction waits on DRAM.
func (t *TxnCore) DramOutstanding() bool {
	return t.Flags&(TxnDramPending|TxnDramDone) == TxnDramPending
}

// MemGrant is the grant of memory-sourced data: GETX → MM; GETS → S if
// a copy survived the probes, else exclusive-clean M (the Hammer
// grant); RemoteLoad → I (uncacheable).
func (t *TxnCore) MemGrant() State {
	return GrantState(t.Typ, false, t.Typ == GETS && t.Flags&TxnSharerSeen != 0)
}

// memData sends memory's data, once, when the probes came back clean
// and the speculative read completed.
func (t *TxnCore) memData() TxnEffect {
	if t.Flags&(TxnDataSent|TxnProbesClean|TxnDramDone) != TxnProbesClean|TxnDramDone {
		return 0
	}
	t.Flags |= TxnDataSent
	return TxMemData
}

func (t *TxnCore) finish() TxnEffect {
	if t.Flags&TxnUnblocked != 0 && t.AcksRecv >= t.AcksWanted {
		return TxFinish
	}
	return 0
}

// FillAction is what a requester does with arriving cacheable data.
type FillAction uint8

// Fill actions.
const (
	FillInstall    FillAction = iota // install in Next
	FillSuperseded                   // a push landed meanwhile and wins; drop the data
	FillBypass                       // no-allocate: loads complete from the data, stores write through
)

// FillOutcome is the reaction to a fill. OK reports the install is
// legal from the resident state; Ev is the table row consulted.
type FillOutcome struct {
	Action FillAction
	Grant  State
	OK     bool
	Ev     Event
	Next   State
	Dirty  bool
}

// ApplyFill completes a miss with data granting grant (never I: remote
// loads install nothing). cur is the resident state: I on a plain miss,
// S or O on the upgrade path, whose stale copy survives until the grant
// lands. owned is the data's writeback duty; superseded marks a push
// that landed meanwhile; bypass marks a fill that would evict a dirty
// victim under the bypass-dirty-victim flavour.
func ApplyFill(cur, grant State, owned, superseded, bypass bool) FillOutcome {
	f := FillOutcome{Grant: grant, OK: true}
	switch {
	case superseded:
		f.Action = FillSuperseded
	case bypass:
		f.Action = FillBypass
	default:
		ev, ok := FillEvent(grant)
		out := Transition(cur, ev)
		f.OK, f.Ev, f.Next, f.Dirty = ok && out.OK, ev, out.Next, owned
	}
	return f
}

// StoreAction is how a store that waited on a fill completes.
type StoreAction uint8

// Store actions.
const (
	// StoreReplay: no write permission (or no line); replay as an upgrade.
	StoreReplay StoreAction = iota
	// StoreCommit: commit in place, in the returned state (M upgrades
	// silently to MM).
	StoreCommit
	// StoreWriteThrough: exclusive permission but no copy (a bypassed
	// fill), so the store writes through to memory. Until memory
	// commits, the writer is the data's only holder: the write must sit
	// in the writeback buffer, or a read that beats the writeback to
	// the ordering point would read stale memory.
	StoreWriteThrough
)

// StoreAfterFill resolves a store waiter after fill f; st and resident
// describe the line at that moment.
func StoreAfterFill(st State, resident bool, f FillOutcome) (StoreAction, State) {
	if out := Transition(st, EvStoreHit); resident && out.OK {
		return StoreCommit, out.Next
	}
	if f.Action == FillBypass && f.Grant == MM {
		return StoreWriteThrough, st
	}
	return StoreReplay, st
}

// PushOutcome is a direct-store PUTX install (the blue dashed I→MM
// transition of Fig. 3). Supersede marks the line's in-flight fill
// superseded; WriteThrough also sends the data on to memory as a
// buffered writeback (the §III-F ablation).
type PushOutcome struct {
	OK                      bool
	Ev                      Event
	Next                    State
	Dirty                   bool
	Supersede, WriteThrough bool
}

// InstallPush installs a push over the resident state cur (I when
// absent; a retry, or a line the slice read back in M, lands on a valid
// copy) with a fill possibly pending for the line.
func InstallPush(cur State, fillPending, writeThrough bool) PushOutcome {
	out := Transition(cur, PushEvent(writeThrough))
	return PushOutcome{OK: out.OK, Ev: PushEvent(writeThrough), Next: out.Next,
		Dirty: out.Dirty == DirtySet, Supersede: fillPending, WriteThrough: writeThrough}
}

// PushStale is the resilient receiver's duplicate suppression: a push
// whose sequence number was applied, or older than the line's last
// applied push (versions are monotonic), is re-acked but not applied.
func PushStale(seqApplied bool, ver, lastVer uint64) bool {
	return seqApplied || ver < lastVer
}

// WBCommitClears reports whether memory's commit of a writeback of
// version ver clears the buffer entry holding bufVer. The match keeps a
// newer in-flight writeback (re-fetch and re-evict, a second bypassed
// store) from losing its probe protection to an older one's commit.
func WBCommitClears(buffered bool, bufVer, ver uint64) bool {
	return buffered && bufVer == ver
}
