package modelcheck

import (
	"fmt"

	"dstore/internal/coherence"
)

// recorder observes every protocol-table row the model fires:
// (agent, line, state, event) → next state. Each exploration worker
// installs one that counts mm-install checks and, for the -coverage
// reachability dump, collects the fired rows; trace reconstruction
// passes nil.
type recorder func(agent, line int, st coherence.State, ev coherence.Event, next coherence.State)

func (r recorder) rec(agent, line int, st coherence.State, ev coherence.Event, next coherence.State) {
	if r != nil {
		r(agent, line, st, ev, next)
	}
}

// successors enumerates every state reachable from s in one atomic
// step and hands each to emit together with an action label and, when
// the step itself violated an invariant (push install state), a
// violation message. Labels are only built when labels is true — trace
// reconstruction re-runs successors with labels on, so the hot
// exploration loop never formats strings.
//
// Each step is either a spontaneous agent action (issue a miss, commit
// a store, evict, push) or the delivery of one in-flight message;
// delivery order is completely nondeterministic. DRAM completions are
// modelled as separate steps so the speculative-read-vs-probe race is
// explored both ways.
func successors(cfg Config, s *state, labels bool, rc recorder, emit func(ns *state, label, viol string)) {
	var scratch state
	successorsInto(cfg, s, &scratch, labels, rc, emit)
}

// successorsInto is successors with a caller-owned scratch successor,
// reused for every emitted step: emit callers copy what they keep, so
// the exploration workers pass a long-lived buffer and the expansion
// allocates nothing.
func successorsInto(cfg Config, s, scratch *state, labels bool, rc recorder, emit func(ns *state, label, viol string)) {
	// homeAgent involves a modulo; hoist it out of the agent×line scan.
	var home [maxLines]uint8
	for l := 0; l < cfg.Lines; l++ {
		home[l] = uint8(homeAgent(cfg, l))
	}

	for a := 0; a < cfg.Agents; a++ {
		for l := 0; l < cfg.Lines; l++ {
			direct := isDirect(cfg, l)
			// Direct lines are only cached by their homing GPU slice.
			canDemand := !direct || a == int(home[l])

			st := coherence.State(s.st[a][l])
			idle := s.pend[a][l] == pendNone

			// Resident loads hit without changing state — no successor,
			// but the LoadHit row fires (coverage). Guarded on rc: the
			// argument Transition lookup is pure recording overhead.
			if rc != nil && canDemand && st != coherence.I {
				rc.rec(a, l, st, coherence.EvLoadHit, coherence.Transition(st, coherence.EvLoadHit).Next)
			}

			// Load miss → GETS. Loads that hit (resident line or own
			// non-stale writeback buffer) change no state and are
			// skipped; a stale buffer entry forces the protocol path.
			if canDemand && idle && st == coherence.I && (s.wb[a][l] == 0 || s.wbStale[a][l] != 0) &&
				(cfg.MaxLoads == 0 || s.loadsLeft > 0) {
				ns := scratch
				copyLive(ns, s)
				if cfg.MaxLoads > 0 {
					ns.loadsLeft--
				}
				ns.pend[a][l] = pendLoad
				ns.send(msg{kind: kReq, line: uint8(l), a: uint8(coherence.GETS), b: uint8(a)})
				emit(ns, lbl(labels, "agent%d: load miss line %d (GETS)", a, l), "")
			}

			// Stores (heap lines only; the direct region is written via
			// pushes — ctrl.go documents the same precondition).
			if !direct && idle && s.storesLeft > 0 {
				if out := coherence.Transition(st, coherence.EvStoreHit); out.OK {
					// MM commit in place / silent M→MM upgrade.
					rc.rec(a, l, st, coherence.EvStoreHit, out.Next)
					ns := scratch
					copyLive(ns, s)
					ns.st[a][l] = uint8(out.Next)
					ns.dirty[a][l] = 1
					ns.latest[l]++
					ns.ver[a][l] = ns.latest[l]
					ns.storesLeft--
					emit(ns, lbl(labels, "agent%d: store hit line %d → v%d", a, l, ns.latest[l]), "")
				} else {
					// Upgrade from S or O (other copies must be invalidated
					// first) or miss from I. Under the bypass-dirty-victim
					// flavour a miss may also leave the fill unallocated:
					// the store then writes through.
					format := "agent%d: store upgrade line %d (GETX)"
					if st == coherence.I {
						format = "agent%d: store miss line %d (GETX)"
					}
					for _, p := range [2]uint8{pendStore, pendBypass} {
						if p == pendBypass && (st != coherence.I || !cfg.Bypass) {
							break
						}
						ns := scratch
						copyLive(ns, s)
						ns.pend[a][l] = p
						ns.storesLeft--
						ns.send(msg{kind: kReq, line: uint8(l), a: uint8(coherence.GETX), b: uint8(a)})
						emit(ns, lbl(labels, format, a, l), "")
						format = "agent%d: bypass store miss line %d (GETX)"
					}
				}
			}

			// Spontaneous eviction (capacity is abstracted away).
			if canDemand && idle && st != coherence.I &&
				(cfg.MaxEvicts == 0 || s.evictsLeft > 0) {
				evOut := coherence.Transition(st, coherence.EvEvict)
				if !evOut.OK {
					panic("modelcheck: illegal evict")
				}
				rc.rec(a, l, st, coherence.EvEvict, evOut.Next)
				ns := scratch
				copyLive(ns, s)
				if cfg.MaxEvicts > 0 {
					ns.evictsLeft--
				}
				if s.dirty[a][l] != 0 {
					ns.wb[a][l] = s.ver[a][l]
					ns.wbStale[a][l] = 0
					ns.send(msg{kind: kReq, line: uint8(l), a: uint8(coherence.WB), b: uint8(a), c: s.ver[a][l]})
					ns.invalidate(a, l)
					emit(ns, lbl(labels, "agent%d: evict dirty line %d (WB v%d)", a, l, s.ver[a][l]), "")
				} else {
					ns.invalidate(a, l)
					emit(ns, lbl(labels, "agent%d: evict clean line %d", a, l), "")
				}
			}

			// Direct-store push (CPU agent only, direct lines only). The
			// CPU side is the table's DirectStore row: never cached
			// locally, so it fires from I.
			if a == 0 && direct && s.storesLeft > 0 {
				if rc != nil {
					rc.rec(a, l, coherence.I, coherence.EvDirectStore, coherence.Transition(coherence.I, coherence.EvDirectStore).Next)
				}
				if cfg.Resilient {
					if s.pushSeq < maxSeqs && pendingPushesForLine(s, l) < 2 {
						ns := scratch
						copyLive(ns, s)
						ns.latest[l]++
						ns.storesLeft--
						seq := ns.pushSeq + 1
						ns.pushSeq = seq
						ns.pushPend |= 1 << seq
						ns.pushVer[seq] = ns.latest[l]
						ns.pushLine[seq] = uint8(l)
						ns.send(msg{kind: kPutx, line: uint8(l), a: ns.latest[l], b: seq})
						emit(ns, lbl(labels, "agent0: push line %d v%d (seq %d)", l, ns.latest[l], seq), "")
					}
				} else if !putxInFlight(s, l) {
					// Fire-and-forget pushes ride a dedicated FIFO link:
					// one in flight per line models the in-order delivery.
					ns := scratch
					copyLive(ns, s)
					ns.latest[l]++
					ns.storesLeft--
					ns.send(msg{kind: kPutx, line: uint8(l), a: ns.latest[l]})
					emit(ns, lbl(labels, "agent0: push line %d v%d", l, ns.latest[l]), "")
				}
			}

			// Uncacheable remote load of the direct region (CPU reading
			// results back) — exercises the PrbSnoop row.
			if a == 0 && direct && idle && (cfg.MaxLoads == 0 || s.loadsLeft > 0) {
				ns := scratch
				copyLive(ns, s)
				if cfg.MaxLoads > 0 {
					ns.loadsLeft--
				}
				ns.pend[a][l] = pendRemote
				ns.send(msg{kind: kReq, line: uint8(l), a: uint8(coherence.RemoteLoad), b: uint8(a)})
				emit(ns, lbl(labels, "agent0: remote load line %d", l), "")
			}
		}
	}

	// DRAM completions.
	for l := 0; l < cfg.Lines; l++ {
		if s.busy[l] == 0 || !s.txn[l].DramOutstanding() {
			continue
		}
		t := s.txn[l]
		ns := scratch
		copyLive(ns, s)
		applyTxn(cfg, ns, l, ns.txn[l].DramComplete())
		if t.Typ == coherence.WB {
			emit(ns, lbl(labels, "memctl: WB v%d line %d committed", t.ver, l), "")
		} else {
			emit(ns, lbl(labels, "memctl: speculative DRAM read line %d done", l), "")
		}
	}

	// Message deliveries. The multiset is sorted, so skipping an entry
	// equal to its predecessor dedupes identical deliveries.
	for i := 0; i < int(s.nmsgs); i++ {
		if i > 0 && s.msgs[i] == s.msgs[i-1] {
			continue
		}
		m := s.msgs[i]
		if m.ord != 0 {
			// OrderedNet: not at the head of its destination's FIFO.
			continue
		}
		if m.kind == kReq && coherence.ReqType(m.a) == coherence.WB && earlierWBInFlight(s, m) {
			// The crossbar is FIFO per source-destination pair, so two
			// writebacks from the same agent for the same line (evict,
			// reclaim from the writeback buffer, evict again) arrive in
			// send order: versions are monotone, so deliver lowest first.
			continue
		}
		if m.kind == kProbe && cfg.Mutation == MutSkipInvalidate ||
			m.kind == kPutx && cfg.Resilient {
			// Multi-variant receives (skip-invalidate mutation, NACK and
			// duplicate injection) are enumerated out of line.
			variants, nvar := deliveryVariants(cfg, s, m)
			for _, v := range variants[:nvar] {
				ns := scratch
				copyLive(ns, s)
				if v != variantDup {
					ns.take(i)
				} else {
					ns.dupLeft--
				}
				label, viol := deliver(cfg, ns, m, v, labels, rc)
				emit(ns, label, viol)
			}
			continue
		}
		ns := scratch
		copyLive(ns, s)
		ns.take(i)
		label, viol := deliver(cfg, ns, m, variantNormal, labels, rc)
		emit(ns, label, viol)
	}
}

// lbl formats a step label when labels is on (trace replay) and
// returns "" otherwise. Its callers pass only integers below 256 and
// constant strings, whose interface conversions never allocate, so
// label-less exploration allocates nothing here; the sites with
// computed strings (state names, suffixes) test labels before
// formatting.
func lbl(labels bool, format string, args ...any) string {
	if !labels {
		return ""
	}
	return fmt.Sprintf(format, args...)
}

// Delivery variants for nondeterministic receive behaviour.
const (
	variantNormal = iota
	variantSkipInvalidate
	variantNack
	variantDup
)

// deliveryVariants lists how message m may be received in state s.
// Fixed-size return: the hot loop calls this once per in-flight
// message, so a slice would mean one heap allocation per delivery.
func deliveryVariants(cfg Config, s *state, m msg) (vs [3]int, n int) {
	vs[0], n = variantNormal, 1
	switch m.kind {
	case kProbe:
		if cfg.Mutation == MutSkipInvalidate && probeWouldInvalidate(s, m) {
			vs[n] = variantSkipInvalidate
			n++
		}
	case kPutx:
		if cfg.Resilient && m.b != 0 {
			if s.nackLeft > 0 {
				vs[n] = variantNack
				n++
			}
			if s.dupLeft > 0 {
				vs[n] = variantDup
				n++
			}
		}
	}
	return vs, n
}

// probeWouldInvalidate reports whether delivering probe m takes the
// normal-path copy to I (the mutation point for MutSkipInvalidate).
func probeWouldInvalidate(s *state, m msg) bool {
	a, l := int(m.b), int(m.line)
	r := coherence.AnswerProbe(probeCtx(s, a, l), coherence.ProbeKind(m.a))
	return s.st[a][l] != coherence.I && r.Next == coherence.I
}

// probeCtx reads agent a's line-local probe context for line l.
func probeCtx(s *state, a, l int) coherence.ProbeCtx {
	c := coherence.ProbeCtx{St: coherence.State(s.st[a][l]), Dirty: s.dirty[a][l] != 0}
	if wb := s.wb[a][l]; wb != 0 {
		c.WB = coherence.WBLive
		if s.wbStale[a][l] != 0 {
			c.WB = coherence.WBStale
		}
		c.LiveOlder = s.ver[a][l] < wb
	}
	return c
}

// deliver applies message m (already removed from the multiset unless
// duplicated) to ns. Every protocol decision is the transition core's
// (internal/coherence/core.go); this function only reads the context
// from the packed state, writes the results back and turns the core's
// effects into messages.
func deliver(cfg Config, ns *state, m msg, variant int, labels bool, rc recorder) (label, viol string) {
	l := int(m.line)
	switch m.kind {
	case kReq:
		e := reqEntry{typ: m.a, from: m.b, ver: m.c}
		if ns.busy[l] != 0 {
			if int(ns.nq[l]) >= maxQueue {
				panic("modelcheck: request queue overflow (raise maxQueue)")
			}
			ns.queue[l][ns.nq[l]] = e
			ns.nq[l]++
			return lbl(labels, "memctl: queue %s from agent%d line %d", coherence.ReqType(m.a), m.b, l), ""
		}
		startTxn(cfg, ns, l, e)
		return lbl(labels, "memctl: start %s from agent%d line %d", coherence.ReqType(m.a), m.b, l), ""

	case kProbe:
		return deliverProbe(ns, m, variant, labels, rc), ""

	case kAck:
		if ns.busy[l] == 0 {
			panic("modelcheck: ack for idle line")
		}
		applyTxn(cfg, ns, l, ns.txn[l].Ack(m.b&fHadData != 0, m.b&fPresent != 0))
		return lbl(labels, "memctl: ack from agent%d line %d", m.a, l), ""

	case kData:
		return deliverData(cfg, ns, m, labels, rc), ""

	case kUnblock:
		if ns.busy[l] == 0 {
			panic("modelcheck: unblock for idle line")
		}
		applyTxn(cfg, ns, l, ns.txn[l].Unblock())
		return lbl(labels, "memctl: unblock from agent%d line %d", m.a, l), ""

	case kWBDone:
		a := int(m.a)
		if coherence.WBCommitClears(ns.wb[a][l] != 0, uint64(ns.wb[a][l]), uint64(m.b)) {
			ns.wb[a][l] = 0
			ns.wbStale[a][l] = 0
		}
		return lbl(labels, "agent%d: WB v%d line %d acknowledged", a, m.b, l), ""

	case kPutx:
		return deliverPutx(cfg, ns, m, variant, labels, rc)

	case kPushAck:
		seq := m.a
		if m.b&fNack != 0 {
			if ns.pushPend&(1<<seq) != 0 {
				// Retry the still-pending push (chaos.go's retryPush).
				ns.send(msg{kind: kPutx, line: ns.pushLine[seq], a: ns.pushVer[seq], b: seq})
				return lbl(labels, "agent0: push seq %d NACKed, retrying", seq), ""
			}
			return lbl(labels, "agent0: stale NACK for seq %d ignored", seq), ""
		}
		ns.pushPend &^= 1 << seq
		return lbl(labels, "agent0: push seq %d acknowledged", seq), ""
	}
	panic("modelcheck: unknown message kind")
}

// startTxn begins a transaction at the ordering point. Hammer has no
// directory: every agent but the requester is a probe target.
func startTxn(cfg Config, ns *state, l int, e reqEntry) {
	ns.busy[l] = 1
	t := &ns.txn[l]
	t.from, t.ver = e.from, e.ver
	applyTxn(cfg, ns, l, t.Start(coherence.ReqType(e.typ), cfg.Agents-1))
}

// applyTxn carries out a transaction-core event's effects on the model:
// memory updates and the probe, data and commit messages. DRAM accesses
// need nothing here: while one is outstanding its completion is a
// separate nondeterministic step (see successorsInto).
func applyTxn(cfg Config, ns *state, l int, eff coherence.TxnEffect) {
	t := &ns.txn[l]
	if eff&coherence.TxDramWrite != 0 {
		ns.mem[l] = t.ver
	}
	if eff&coherence.TxProbe != 0 {
		kind, ok := coherence.ProbeFor(t.Typ)
		if !ok {
			panic(fmt.Sprintf("modelcheck: no probe kind for %v", t.Typ))
		}
		for tgt := 0; tgt < cfg.Agents; tgt++ {
			if tgt != int(t.from) {
				ns.send(msg{kind: kProbe, line: uint8(l), a: uint8(kind), b: uint8(tgt), c: t.from})
			}
		}
	}
	if eff&(coherence.TxGrant|coherence.TxMemData) != 0 {
		ns.send(msg{kind: kData, line: uint8(l), a: t.from, b: uint8(t.MemGrant()), c: ns.mem[l]})
	}
	if eff&coherence.TxWBDone != 0 {
		ns.send(msg{kind: kWBDone, line: uint8(l), a: t.from, b: t.ver})
	}
	if eff&coherence.TxFinish != 0 {
		finishTxn(cfg, ns, l)
	}
}

// finishTxn closes line l's transaction and starts the next queued
// request, if any.
func finishTxn(cfg Config, ns *state, l int) {
	ns.busy[l] = 0
	ns.txn[l] = txnState{}
	if ns.nq[l] == 0 {
		return
	}
	e := ns.queue[l][0]
	copy(ns.queue[l][:], ns.queue[l][1:int(ns.nq[l])])
	ns.nq[l]--
	ns.queue[l][ns.nq[l]] = reqEntry{}
	startTxn(cfg, ns, l, e)
}

// deliverProbe answers a probe at agent m.b. The skip-invalidate
// variant perturbs the core's result: the copy survives a reply that
// invalidates it.
func deliverProbe(ns *state, m msg, variant int, labels bool, rc recorder) string {
	a, l := int(m.b), int(m.line)
	kind := coherence.ProbeKind(m.a)
	st := coherence.State(ns.st[a][l])
	r := coherence.AnswerProbe(probeCtx(ns, a, l), kind)
	ver := ns.ver[a][l]
	if r.FromWB {
		ver = ns.wb[a][l]
		if r.StaleWB {
			ns.wbStale[a][l] = 1
		}
	} else {
		rc.rec(a, l, st, r.Ev, r.Next)
	}
	skipped := ""
	switch {
	case r.Next == st:
	case r.Next == coherence.I:
		if variant == variantSkipInvalidate {
			skipped = " [copy kept: skip-invalidate]"
			break
		}
		ns.invalidate(a, l)
	default:
		ns.st[a][l] = uint8(r.Next)
	}
	var flags uint8
	if r.Present {
		flags |= fPresent
	}
	if r.HadData {
		flags |= fHadData
		if r.Dirty {
			flags |= fDirty
		}
		var d uint8
		if r.Owned {
			d = fOwned
		}
		ns.send(msg{kind: kData, line: uint8(l), a: m.c, b: uint8(r.Grant), c: ver, d: d})
	}
	ns.send(msg{kind: kAck, line: uint8(l), a: uint8(a), b: flags, c: ver})
	switch {
	case !labels:
		return ""
	case r.FromWB:
		return fmt.Sprintf("agent%d: %v line %d answered from wb buffer (v%d)", a, kind, l, ver)
	}
	return fmt.Sprintf("agent%d: answer %v line %d (was %s)%s", a, kind, l, coherence.StateName(st), skipped)
}

// deliverData completes agent m.a's outstanding miss. The
// bypass-no-wbbuf mutation perturbs the core's write-through: the
// write skips the writeback buffer.
func deliverData(cfg Config, ns *state, m msg, labels bool, rc recorder) string {
	a, l := int(m.a), int(m.line)
	grant := coherence.State(m.b)
	if grant == coherence.I {
		// Uncacheable remote-load data: nothing installs.
		if ns.pend[a][l] != pendRemote {
			panic("modelcheck: remote data with no remote pend")
		}
		ns.pend[a][l] = pendNone
		ns.send(msg{kind: kUnblock, line: uint8(l), a: uint8(a)})
		return lbl(labels, "agent%d: remote load line %d completes (v%d)", a, l, m.c)
	}
	p := ns.pend[a][l]
	if p == pendNone {
		panic("modelcheck: data with no pending miss")
	}
	cur := coherence.State(ns.st[a][l])
	f := coherence.ApplyFill(cur, grant, m.d&fOwned != 0, ns.super[a][l] != 0, p == pendBypass)
	ns.pend[a][l] = pendNone
	ns.super[a][l] = 0
	defer ns.send(msg{kind: kUnblock, line: uint8(l), a: uint8(a)})
	switch f.Action {
	case coherence.FillSuperseded:
		return lbl(labels, "agent%d: fill line %d superseded by push", a, l)
	case coherence.FillBypass:
		// The bypassed store is the fill's only waiter.
		if act, _ := coherence.StoreAfterFill(cur, cur != coherence.I, f); act != coherence.StoreWriteThrough {
			panic("modelcheck: bypassed store does not write through")
		}
		ns.latest[l]++
		v := ns.latest[l]
		if cfg.Mutation != MutBypassNoWBBuf {
			ns.wb[a][l] = v
			ns.wbStale[a][l] = 0
		}
		ns.send(msg{kind: kReq, line: uint8(l), a: uint8(coherence.WB), b: uint8(a), c: v})
		return lbl(labels, "agent%d: bypassed store line %d writes through v%d", a, l, v)
	}
	if !f.OK {
		panic("modelcheck: illegal fill")
	}
	rc.rec(a, l, cur, f.Ev, f.Next)
	ns.st[a][l] = uint8(f.Next)
	ns.dirty[a][l] = 0
	if f.Dirty {
		ns.dirty[a][l] = 1
	}
	ns.ver[a][l] = m.c
	if p == pendLoad {
		if !labels {
			return ""
		}
		return fmt.Sprintf("agent%d: fill line %d %s v%d", a, l, coherence.StateName(f.Next), m.c)
	}
	// The waiting store commits on the exclusive fill.
	act, next := coherence.StoreAfterFill(f.Next, true, f)
	if act != coherence.StoreCommit {
		panic("modelcheck: store fill without write permission")
	}
	rc.rec(a, l, f.Next, coherence.EvStoreHit, next)
	ns.st[a][l] = uint8(next)
	ns.dirty[a][l] = 1
	ns.latest[l]++
	ns.ver[a][l] = ns.latest[l]
	return lbl(labels, "agent%d: exclusive fill line %d, store commits v%d", a, l, ns.latest[l])
}

// deliverPutx is the GPU slice's push receive: injected NACKs and, for
// resilient pushes, duplicate suppression ahead of the install.
func deliverPutx(cfg Config, ns *state, m msg, variant int, labels bool, rc recorder) (string, string) {
	l := int(m.line)
	ver, seq := m.a, m.b
	if variant == variantNack {
		ns.nackLeft--
		ns.send(msg{kind: kPushAck, line: uint8(l), a: seq, b: fNack})
		return lbl(labels, "gpu: NACK push seq %d line %d", seq, l), ""
	}
	dup := "" // label suffix, set only when labels are on
	if labels && variant == variantDup {
		dup = " [duplicated]"
	}
	if seq != 0 && coherence.PushStale(ns.applied&(1<<seq) != 0, uint64(ver), uint64(ns.lastPushVer[l])) {
		ns.send(msg{kind: kPushAck, line: uint8(l), a: seq})
		return lbl(labels, "gpu: duplicate/stale push seq %d line %d re-acked%s", seq, l, dup), ""
	}
	viol := applyPush(cfg, ns, l, ver, rc)
	if seq != 0 {
		ns.applied |= 1 << seq
		ns.lastPushVer[l] = ver
		ns.send(msg{kind: kPushAck, line: uint8(l), a: seq})
	}
	return lbl(labels, "gpu: push install line %d v%d (seq %d)%s", l, ver, seq, dup), viol
}

// applyPush installs a push at its homing slice (capacity is abstracted
// away, so the simulator's overflow-to-DRAM path has no counterpart) and
// checks the MM-install invariant: write permission must arrive with
// the data (§III-F), except under the write-through ablation. The
// push-install-s mutation perturbs the core's install state.
func applyPush(cfg Config, ns *state, l int, ver uint8, rc recorder) string {
	g := homeAgent(cfg, l)
	cur := coherence.State(ns.st[g][l])
	r := coherence.InstallPush(cur, ns.pend[g][l] != pendNone, cfg.WriteThroughPush)
	if !r.OK {
		panic("modelcheck: illegal push install")
	}
	rc.rec(g, l, cur, r.Ev, r.Next)
	if r.Supersede {
		ns.super[g][l] = 1
	}
	st, dirty := r.Next, r.Dirty
	if cfg.Mutation == MutPushInstallS {
		st, dirty = coherence.S, false
	}
	ns.st[g][l] = uint8(st)
	ns.dirty[g][l] = 0
	if dirty {
		ns.dirty[g][l] = 1
	}
	ns.ver[g][l] = ver
	if r.WriteThrough {
		ns.wb[g][l] = ver
		ns.wbStale[g][l] = 0
		ns.send(msg{kind: kReq, line: uint8(l), a: uint8(coherence.WB), b: uint8(g), c: ver})
	}
	want, _ := coherence.PushInstallState(cfg.WriteThroughPush)
	if st != want {
		return fmt.Sprintf("push installed line %d in %s, want %s (MM-install invariant, paper §III-F)",
			l, coherence.StateName(st), coherence.StateName(want))
	}
	return ""
}

// pendingPushesForLine counts unacknowledged pushes targeting line l.
func pendingPushesForLine(s *state, l int) int {
	n := 0
	for seq := 1; seq <= maxSeqs; seq++ {
		if s.pushPend&(1<<seq) != 0 && int(s.pushLine[seq]) == l {
			n++
		}
	}
	return n
}

// earlierWBInFlight reports whether the multiset holds an older
// writeback request for the same line. Same-line writebacks are sent
// in version order (data flows through probes before it can be
// re-evicted) and the crossbar reserves its destination port at send
// time, so they arrive in version order too.
func earlierWBInFlight(s *state, m msg) bool {
	for i := 0; i < int(s.nmsgs); i++ {
		o := s.msgs[i]
		if o.kind == kReq && coherence.ReqType(o.a) == coherence.WB &&
			o.line == m.line && o.c < m.c {
			return true
		}
	}
	return false
}

// putxInFlight reports whether a fire-and-forget push for line l is in
// the multiset (the dedicated link is FIFO, so baseline pushes are
// modelled one-at-a-time per line).
func putxInFlight(s *state, l int) bool {
	for i := 0; i < int(s.nmsgs); i++ {
		if s.msgs[i].kind == kPutx && int(s.msgs[i].line) == l {
			return true
		}
	}
	return false
}
