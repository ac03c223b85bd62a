// Package modelcheck exhaustively verifies the coherence protocol by
// explicit-state enumeration, Murphi-style: a small abstract model of
// the protocol — agents with stable line states, the memory
// controller's per-line transaction serialisation, and an unordered
// in-flight message multiset — is explored breadth-first over every
// reachable state, checking SWMR, data-value and MM-install invariants
// in each one and printing a minimal counterexample trace on
// violation.
//
// The model runs the simulator's protocol code: every transaction
// start and every probe, ack, data, unblock, writeback-commit and PUTX
// delivery calls the transition core in internal/coherence (core.go:
// AnswerProbe, TxnCore, ApplyFill, StoreAfterFill, InstallPush,
// PushStale, WBCommitClears), the same pure functions the runtime
// controllers wrap, and the packed state embeds coherence.TxnCore.
// What stays here is the environment and the abstraction: the message
// multiset and request queue, the spontaneous agent actions, and three
// simplifications. Timing: message delivery order is fully
// nondeterministic (a sound over-approximation of the crossbar, whose
// mixed control/data latencies — and the chaos layer's injected jitter
// — already reorder messages), and DRAM completions are separate
// steps. Capacity: caches have no size, so evictions are spontaneous
// actions and pushes never overflow. Ghost versions: data values are
// versions from a global counter, exactly like the stress harness's
// oracle. The -mutate bugs perturb the core's returned effects here,
// so the core carries no mutation parameter.
//
// Scope and limits (see DESIGN.md "Static verification"): the direct
// push path models the paper's usage — the CPU pushes and remote-loads
// the direct region, the GPU slice reads and evicts it; concurrent
// coherent stores to a line being pushed are outside the protocol
// (ctrl.go documents the same precondition) and are not modelled.
package modelcheck

import (
	"fmt"

	"dstore/internal/coherence"
)

// Model bounds. The state struct is fixed-size and comparable so it
// can key the visited map directly.
const (
	maxAgents = 4
	maxLines  = 2
	maxQueue  = 6
	maxMsgs   = 24
	maxSeqs   = 7 // resilient push sequence numbers 1..maxSeqs
)

// Mutation re-introduces a known protocol bug so tests can prove the
// checker finds it.
type Mutation uint8

// Mutations.
const (
	// MutNone checks the protocol as implemented.
	MutNone Mutation = iota
	// MutSkipInvalidate lets a probed cache acknowledge an
	// invalidating probe while keeping its copy (the chaos harness's
	// SkipInvalidate fault): the requester installs exclusive while a
	// stale copy survives.
	MutSkipInvalidate
	// MutBypassNoWBBuf re-introduces the PR 3 lost-store race: a
	// bypassed store's write-through skips the writeback buffer, so a
	// GETS that beats the in-flight WB to the ordering point reads
	// stale DRAM.
	MutBypassNoWBBuf
	// MutPushInstallS installs a direct-store push in S instead of MM,
	// violating the paper's Fig. 3 install state.
	MutPushInstallS
)

// String names the mutation.
func (m Mutation) String() string {
	switch m {
	case MutNone:
		return "none"
	case MutSkipInvalidate:
		return "skip-invalidate"
	case MutBypassNoWBBuf:
		return "bypass-no-wbbuf"
	case MutPushInstallS:
		return "push-install-s"
	default:
		return fmt.Sprintf("Mutation(%d)", uint8(m))
	}
}

// ParseMutation resolves a mutation name.
func ParseMutation(s string) (Mutation, error) {
	for _, m := range []Mutation{MutNone, MutSkipInvalidate, MutBypassNoWBBuf, MutPushInstallS} {
		if m.String() == s {
			return m, nil
		}
	}
	return MutNone, fmt.Errorf("modelcheck: unknown mutation %q", s)
}

// Config selects the model instance to explore.
type Config struct {
	// Agents is the number of coherent cache agents (2..4). Agent 0 is
	// the CPU controller (the only push sender); the last GPUs agents
	// are GPU L2 slices homing the direct-store region.
	Agents int
	// GPUs is the number of GPU L2 slice agents (1..2; 0 means 1).
	// Direct line l is homed at slice l % GPUs, mirroring the
	// simulator's address-interleaved slice routing.
	GPUs int
	// Lines is the number of cache lines (1..2).
	Lines int
	// DirectLines makes the first DirectLines lines direct-store
	// region lines: written by agent 0's pushes, readable by the GPU
	// slice (GETS) and the CPU (uncacheable RemoteLoad).
	DirectLines int
	// MaxStores bounds the total number of writes (stores + pushes)
	// across the run; it is what makes the version-tracking state
	// space finite.
	MaxStores int
	// MaxEvicts bounds spontaneous evictions across the run; 0 means
	// unbounded. Single-line configs stay tractable unbounded, but
	// multi-line configs need the bound: evict/reload churn on
	// independent lines cross-multiplies under full interleaving.
	MaxEvicts int
	// MaxLoads bounds demand load misses and remote loads across the
	// run; 0 means unbounded. Like MaxEvicts it only exists to keep
	// multi-line products tractable — per-line interleavings of
	// independent lines multiply, so every unbounded action cycle on
	// one line scales the whole product by the other line's space.
	MaxLoads int
	// Bypass enables the bypass-dirty-victim store flavour: a store
	// miss may complete as a no-allocate write-through (the GPU L2
	// slice's streaming-store path).
	Bypass bool
	// WriteThroughPush selects the §III-F ablation: pushes install
	// exclusive-clean (M) and write through to memory.
	WriteThroughPush bool
	// Resilient enables the seq-numbered ack/NACK push protocol; NACKs
	// and duplicated deliveries are injected nondeterministically up
	// to the budgets below.
	Resilient bool
	// MaxNacks bounds injected push NACKs.
	MaxNacks int
	// MaxDups bounds duplicated push deliveries.
	MaxDups int
	// OrderedNet refines message delivery to match the crossbar's port
	// arbitration: messages to the same destination are delivered in
	// send order (the crossbar reserves its ejection port at send time
	// with a constant hop latency, so same-destination reorder is
	// impossible in the simulator — the chaos layer only jitters the
	// direct link, whose kPutx/kPushAck traffic stays reorderable
	// here). Cross-destination order remains fully nondeterministic.
	// The unordered default explores strictly more interleavings; the
	// refinement is what makes multi-line products tractable.
	OrderedNet bool
	// Symmetry enables canonical-ordering symmetry reduction: states
	// that differ only by a permutation of interchangeable middle
	// agents (the non-CPU, non-GPU cache agents), of identical heap
	// lines, or of identical (GPU slice, homed line) pairs are explored
	// once. Sound because the model treats those entities uniformly;
	// see canon.go.
	Symmetry bool
	// Mutation optionally re-introduces a known bug.
	Mutation Mutation
}

func (c Config) String() string {
	ev := "unbounded"
	if c.MaxEvicts > 0 {
		ev = fmt.Sprintf("%d", c.MaxEvicts)
	}
	ld := "unbounded"
	if c.MaxLoads > 0 {
		ld = fmt.Sprintf("%d", c.MaxLoads)
	}
	net := "unordered"
	if c.OrderedNet {
		net = "ordered"
	}
	s := fmt.Sprintf("agents=%d lines=%d direct=%d stores=%d evicts=%s loads=%s bypass=%v wtpush=%v resilient=%v nacks=%d dups=%d net=%s mutation=%s",
		c.Agents, c.Lines, c.DirectLines, c.MaxStores, ev, ld, c.Bypass, c.WriteThroughPush,
		c.Resilient, c.MaxNacks, c.MaxDups, net, c.Mutation)
	if c.gpus() > 1 {
		s += fmt.Sprintf(" gpus=%d", c.gpus())
	}
	if c.Symmetry {
		s += " symmetry=on"
	}
	return s
}

// gpus returns the normalised GPU slice count (the zero value means 1).
func (c *Config) gpus() int {
	if c.GPUs == 0 {
		return 1
	}
	return c.GPUs
}

func (c Config) validate() error {
	switch {
	case c.Agents < 2 || c.Agents > maxAgents:
		return fmt.Errorf("modelcheck: agents must be 2..%d", maxAgents)
	case c.Lines < 1 || c.Lines > maxLines:
		return fmt.Errorf("modelcheck: lines must be 1..%d", maxLines)
	case c.DirectLines < 0 || c.DirectLines > c.Lines:
		return fmt.Errorf("modelcheck: direct lines must be 0..lines")
	case c.MaxStores < 0 || c.MaxStores > maxSeqs:
		return fmt.Errorf("modelcheck: stores must be 0..%d", maxSeqs)
	case c.MaxEvicts < 0 || c.MaxEvicts > 15:
		return fmt.Errorf("modelcheck: evicts must be 0..15 (0 = unbounded)")
	case c.MaxLoads < 0 || c.MaxLoads > 15:
		return fmt.Errorf("modelcheck: loads must be 0..15 (0 = unbounded)")
	case c.GPUs < 0 || c.GPUs > 2:
		return fmt.Errorf("modelcheck: gpus must be 1..2")
	case c.gpus() > c.Agents-1:
		return fmt.Errorf("modelcheck: gpus must leave at least the CPU agent")
	}
	return nil
}

// Message kinds.
const (
	kNone    uint8 = iota
	kReq           // a=ReqType, b=from, c=ver (WB)
	kProbe         // a=ProbeKind, b=target, c=requester
	kAck           // a=from, b=flags, c=ver
	kData          // a=to, b=grant, c=ver, d=flags (owned)
	kUnblock       // a=from
	kWBDone        // a=to, b=ver
	kPutx          // a=ver, b=seq (0 = fire-and-forget)
	kPushAck       // a=seq, b=flags (nack)
)

// msg flag bits (field b for kAck/kPushAck, d for kData).
const (
	fHadData uint8 = 1 << iota
	fPresent
	fDirty
	fOwned
	fNack
)

// msg is one in-flight message. All payloads are single bytes so the
// struct is comparable and sorts bytewise for canonicalisation. Under
// Config.OrderedNet, ord is the message's position in its
// destination's FIFO (0 = head, the only deliverable position); in
// unordered mode ord is always 0.
type msg struct {
	kind, line, a, b, c, d, ord uint8
}

// Destination codes for FIFO ordering under OrderedNet. Agents are
// their own codes 0..maxAgents-1.
const (
	dstMem  = 200 // the memory controller (the ordering point)
	dstNone = 255 // direct-link traffic: jittered by chaos, reorderable
)

// dstOf returns the destination code of a message.
func dstOf(m msg) uint8 {
	switch m.kind {
	case kReq, kAck, kUnblock:
		return dstMem
	case kProbe:
		return m.b
	case kData, kWBDone:
		return m.a
	default: // kPutx, kPushAck ride the chaos-jittered direct link
		return dstNone
	}
}

// pend kinds: at most one outstanding miss per (agent, line), exactly
// like a 1-entry MSHR per line.
const (
	pendNone uint8 = iota
	pendLoad
	pendStore
	pendBypass
	pendRemote
)

// txnState is the ordering point's in-flight transaction for one line:
// the transaction core the simulator's memory controller runs, plus the
// requester and the writeback version it serves (memctrl.go keeps those
// in the request message).
type txnState struct {
	coherence.TxnCore
	from uint8
	ver  uint8 // WB payload
}

// reqEntry is one queued request at the ordering point.
type reqEntry struct {
	typ, from, ver uint8
}

// state is one explored protocol state. It is comparable (fixed-size
// arrays only) and fully canonical: invalid copies zero their ver and
// dirty fields, and the message multiset is kept sorted.
type state struct {
	st    [maxAgents][maxLines]uint8
	dirty [maxAgents][maxLines]uint8
	ver   [maxAgents][maxLines]uint8
	wb    [maxAgents][maxLines]uint8
	// wbStale is the controllers' wbStale: the buffered writeback
	// answered an invalidating probe, so it no longer serves local loads
	// or later probes.
	wbStale [maxAgents][maxLines]uint8
	pend    [maxAgents][maxLines]uint8
	super   [maxAgents][maxLines]uint8

	mem    [maxLines]uint8
	latest [maxLines]uint8
	busy   [maxLines]uint8
	txn    [maxLines]txnState
	queue  [maxLines][maxQueue]reqEntry
	nq     [maxLines]uint8

	storesLeft uint8
	evictsLeft uint8 // 0 means unbounded when cfg.MaxEvicts == 0
	loadsLeft  uint8 // 0 means unbounded when cfg.MaxLoads == 0
	nackLeft   uint8
	dupLeft    uint8
	ordered    uint8 // constant per run (cfg.OrderedNet); lets send() see the mode

	// Resilient push machinery. pushPend is a bitmask of outstanding
	// (unacknowledged) sequence numbers at the sender; applied is the
	// receiver's duplicate-suppression set.
	pushSeq     uint8
	pushPend    uint8
	pushVer     [maxSeqs + 1]uint8
	pushLine    [maxSeqs + 1]uint8
	applied     uint8
	lastPushVer [maxLines]uint8

	msgs  [maxMsgs]msg
	nmsgs uint8
}

// initial returns the start state: every cache invalid, memory at
// version 0, all budgets full.
func initial(cfg Config) state {
	var s state
	s.storesLeft = uint8(cfg.MaxStores)
	s.evictsLeft = uint8(cfg.MaxEvicts)
	s.loadsLeft = uint8(cfg.MaxLoads)
	s.nackLeft = uint8(cfg.MaxNacks)
	s.dupLeft = uint8(cfg.MaxDups)
	if cfg.OrderedNet {
		s.ordered = 1
	}
	return s
}

// send adds a message to the multiset, keeping it sorted. Under
// OrderedNet crossbar messages take a FIFO position behind everything
// already in flight to the same destination.
func (s *state) send(m msg) {
	if int(s.nmsgs) >= maxMsgs {
		panic("modelcheck: message multiset overflow (raise maxMsgs)")
	}
	if s.ordered != 0 {
		if d := dstOf(m); d != dstNone {
			for i := 0; i < int(s.nmsgs); i++ {
				if dstOf(s.msgs[i]) == d {
					m.ord++
				}
			}
		}
	}
	i := int(s.nmsgs)
	s.msgs[i] = m
	s.nmsgs++
	for i > 0 && msgLess(s.msgs[i], s.msgs[i-1]) {
		s.msgs[i], s.msgs[i-1] = s.msgs[i-1], s.msgs[i]
		i--
	}
}

// take removes message i, preserving sort order. Removing an ordered
// message advances the rest of its destination's FIFO (in unordered
// mode every ord is 0, so the whole pass is skipped — it is a per-
// delivery scan of the multiset on the checker's hottest path).
func (s *state) take(i int) msg {
	m := s.msgs[i]
	copy(s.msgs[i:], s.msgs[i+1:int(s.nmsgs)])
	s.nmsgs--
	s.msgs[s.nmsgs] = msg{}
	if d := dstOf(m); s.ordered != 0 && d != dstNone {
		moved := false
		for j := 0; j < int(s.nmsgs); j++ {
			if s.msgs[j].ord > 0 && dstOf(s.msgs[j]) == d {
				s.msgs[j].ord--
				moved = true
			}
		}
		if moved { // ord participates in the sort key; restore order
			for j := 1; j < int(s.nmsgs); j++ {
				for k := j; k > 0 && msgLess(s.msgs[k], s.msgs[k-1]); k-- {
					s.msgs[k], s.msgs[k-1] = s.msgs[k-1], s.msgs[k]
				}
			}
		}
	}
	return m
}

func msgLess(a, b msg) bool {
	if a.kind != b.kind {
		return a.kind < b.kind
	}
	if a.line != b.line {
		return a.line < b.line
	}
	if a.a != b.a {
		return a.a < b.a
	}
	if a.b != b.b {
		return a.b < b.b
	}
	if a.c != b.c {
		return a.c < b.c
	}
	if a.d != b.d {
		return a.d < b.d
	}
	return a.ord < b.ord
}

// msgKey packs a message's fields, in declaration order, into an
// integer that orders as msgLess orders the message.
func msgKey(kind, line, a, b, c, d, ord uint8) uint64 {
	return uint64(kind)<<48 | uint64(line)<<40 | uint64(a)<<32 |
		uint64(b)<<24 | uint64(c)<<16 | uint64(d)<<8 | uint64(ord)
}

// invalidate drops agent a's copy of line l, zeroing the canonical
// fields.
func (s *state) invalidate(a, l int) {
	s.st[a][l] = coherence.I
	s.dirty[a][l] = 0
	s.ver[a][l] = 0
}

// isDirect reports whether line l is in the direct-store region.
func isDirect(cfg *Config, l int) bool { return l < cfg.DirectLines }

// homeAgent returns the index of the GPU L2 slice agent homing direct
// line l (address-interleaved across the last gpus() agents).
func homeAgent(cfg *Config, l int) int {
	return cfg.Agents - cfg.gpus() + l%cfg.gpus()
}
