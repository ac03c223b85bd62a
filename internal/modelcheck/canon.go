package modelcheck

import "bytes"

// Canonical-ordering symmetry reduction: the model treats some
// entities uniformly, so states differing only by a relabelling of
// those entities are behaviourally identical. When Config.Symmetry is
// on, every discovered state is replaced by the lexicographically
// smallest member of its orbit before being fingerprinted, so each
// orbit is explored once.
//
// Interchangeable entities (each a sound group generator because no
// rule distinguishes the swapped pair):
//   - middle agents — neither the CPU (agent 0, the only push sender
//     and remote loader) nor a GPU slice (the home of a direct line);
//   - two heap lines (DirectLines == 0), or two direct lines homed at
//     the same slice (gpus() == 1) — per-line rules are identical and
//     all budgets are shared;
//   - (GPU slice, homed direct line) pairs when gpus() == 2 and both
//     lines are direct: slices are distinguished only by which line
//     they home, so swapping lines and slices together is invisible.
//
// The group is the closure of those generators (all compositions are
// enumerated below); for the standard sweep configs it is trivial and
// canonicalisation is skipped entirely.

// perm is one group element: a relabelling of agents and lines.
type perm struct {
	agents [maxAgents]uint8
	lines  [maxLines]uint8
}

func identityPerm(cfg Config) perm {
	var p perm
	for a := 0; a < maxAgents; a++ {
		p.agents[a] = uint8(a)
	}
	for l := 0; l < maxLines; l++ {
		p.lines[l] = uint8(l)
	}
	return p
}

// symGroup enumerates the non-identity group elements for cfg, or nil
// when symmetry is off or the group is trivial.
func symGroup(cfg Config) []perm {
	if !cfg.Symmetry {
		return nil
	}
	id := identityPerm(cfg)

	// Agent-side generators applied as full elements: the middle-agent
	// swap (at most two middle agents fit in maxAgents).
	agentPerms := []perm{id}
	firstMid, lastMid := 1, cfg.Agents-cfg.gpus()-1
	if lastMid > firstMid {
		p := id
		p.agents[firstMid], p.agents[lastMid] = p.agents[lastMid], p.agents[firstMid]
		agentPerms = append(agentPerms, p)
	}

	// Line-side generators (possibly coupled to a GPU-slice swap).
	linePerms := []perm{id}
	if cfg.Lines == 2 {
		switch {
		case cfg.DirectLines == 0, cfg.DirectLines == 2 && cfg.gpus() == 1:
			p := id
			p.lines[0], p.lines[1] = 1, 0
			linePerms = append(linePerms, p)
		case cfg.DirectLines == 2 && cfg.gpus() == 2:
			p := id
			p.lines[0], p.lines[1] = 1, 0
			g0, g1 := homeAgent(&cfg, 0), homeAgent(&cfg, 1)
			p.agents[g0], p.agents[g1] = p.agents[g1], p.agents[g0]
			linePerms = append(linePerms, p)
		}
	}

	// Closure: compose every agent element with every line element.
	var group []perm
	for _, ap := range agentPerms {
		for _, lp := range linePerms {
			var c perm
			for a := 0; a < maxAgents; a++ {
				c.agents[a] = lp.agents[ap.agents[a]]
			}
			c.lines = lp.lines
			if c != id {
				group = append(group, c)
			}
		}
	}
	return group
}

// applyPermInto writes s relabelled by p into dst, which must not be
// s. Message kinds carry agent ids in kind-specific fields (see the msg
// kind table in model.go); the multiset is re-sorted afterwards so the
// encoding stays canonical. Every byte of dst is written, so dst may
// hold any earlier state: p fixes the agents and lines past its
// configuration's, whose entries are zero in every state, and message
// slots past s.nmsgs are zeroed.
func applyPermInto(s *state, p *perm, dst *state) {
	for a := 0; a < maxAgents; a++ {
		na := p.agents[a]
		for l := 0; l < maxLines; l++ {
			nl := p.lines[l]
			dst.st[na][nl] = s.st[a][l]
			dst.dirty[na][nl] = s.dirty[a][l]
			dst.ver[na][nl] = s.ver[a][l]
			dst.wb[na][nl] = s.wb[a][l]
			dst.wbStale[na][nl] = s.wbStale[a][l]
			dst.pend[na][nl] = s.pend[a][l]
			dst.super[na][nl] = s.super[a][l]
		}
	}
	for l := 0; l < maxLines; l++ {
		nl := p.lines[l]
		dst.mem[nl] = s.mem[l]
		dst.latest[nl] = s.latest[l]
		dst.busy[nl] = s.busy[l]
		dst.nq[nl] = s.nq[l]
		dst.lastPushVer[nl] = s.lastPushVer[l]
		// Copied whole, then relabelled in place: entries past nq are
		// zero, as is an idle line's txn.
		dst.txn[nl] = s.txn[l]
		if s.txn[l] != (txnState{}) {
			dst.txn[nl].from = p.agents[s.txn[l].from]
		}
		dst.queue[nl] = s.queue[l]
		for i := 0; i < int(s.nq[l]); i++ {
			dst.queue[nl][i].from = p.agents[s.queue[l][i].from]
		}
	}
	dst.storesLeft = s.storesLeft
	dst.evictsLeft = s.evictsLeft
	dst.loadsLeft = s.loadsLeft
	dst.nackLeft = s.nackLeft
	dst.dupLeft = s.dupLeft
	dst.ordered = s.ordered
	dst.pushSeq = s.pushSeq
	dst.pushPend = s.pushPend
	dst.applied = s.applied
	dst.pushVer = s.pushVer
	// Entries past pushSeq were never written and stay zero, so the
	// permuted state matches what the permuted run would produce.
	dst.pushLine = s.pushLine
	for seq := 1; seq <= int(s.pushSeq); seq++ {
		dst.pushLine[seq] = p.lines[s.pushLine[seq]]
	}
	for i := int(s.nmsgs); i < int(dst.nmsgs); i++ {
		dst.msgs[i] = msg{}
	}
	dst.nmsgs = s.nmsgs
	// Relabelled messages are insertion-sorted as msgKeys, integers
	// rather than 7-byte structs. Each is read and written a byte at a
	// time: a struct copy through a temporary stalls on the byte
	// stores it reads back.
	var keys [maxMsgs]uint64
	for i := 0; i < int(s.nmsgs); i++ {
		m := &s.msgs[i]
		a, b, c := m.a, m.b, m.c
		switch m.kind {
		case kReq:
			b = p.agents[b]
		case kProbe:
			b, c = p.agents[b], p.agents[c]
		case kAck, kData, kUnblock, kWBDone:
			a = p.agents[a]
		}
		// kPutx (a=ver, b=seq) and kPushAck (a=seq) carry no agent ids.
		k := msgKey(m.kind, p.lines[m.line], a, b, c, m.d, m.ord)
		j := i
		for ; j > 0 && keys[j-1] > k; j-- {
			keys[j] = keys[j-1]
		}
		keys[j] = k
	}
	for i, k := range keys[:s.nmsgs] {
		m := &dst.msgs[i]
		m.kind, m.line, m.a, m.b = uint8(k>>48), uint8(k>>40), uint8(k>>32), uint8(k>>24)
		m.c, m.d, m.ord = uint8(k>>16), uint8(k>>8), uint8(k)
	}
}

// canonicalize replaces s with the smallest member of its orbit under
// group (leaves it alone when the group is empty). It works in place:
// each group element's image is written into one of the two scratch
// states, the smaller of the image and the best so far is kept by
// pointer, and only a winning image is copied back into s.
func canonicalize(group []perm, s *state, scratch *[2]state) {
	best, cand := s, &scratch[0]
	for i := range group {
		applyPermInto(s, &group[i], cand)
		if bytes.Compare(stateBytes(cand), stateBytes(best)) < 0 {
			best, cand = cand, best
			if cand == s {
				cand = &scratch[1]
			}
		}
	}
	if best != s {
		copyLive(s, best)
	}
}
