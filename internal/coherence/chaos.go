package coherence

import (
	"fmt"

	"dstore/internal/interconnect"
	"dstore/internal/memsys"
	"dstore/internal/sim"
)

// ChaosHooks are the controller-side fault-injection points. A nil
// hooks pointer (the default) leaves every code path byte-identical to
// the fault-free simulator; each individual hook is optional too. Hooks
// must be deterministic functions of a seeded PRNG so runs reproduce
// exactly — the chaos package provides such implementations.
type ChaosHooks struct {
	// StallTicks returns extra ticks of controller occupancy injected
	// ahead of processing an incoming access or probe (n-cycle
	// controller stalls). Nil or returning 0 injects nothing.
	StallTicks func() sim.Tick
	// NackPush makes the receiving slice refuse a resilient push; the
	// sender backs off exponentially and retries.
	NackPush func() bool
	// SkipInvalidate makes a peer ignore the state change of an
	// invalidating probe while still acknowledging it — a deliberately
	// injected protocol bug (a mutation) used to prove the stress
	// harness's invariant and oracle checks detect real violations
	// rather than just decorating the run.
	SkipInvalidate func() bool
}

// ResilienceConfig enables the ack/NACK + bounded-retry protocol on the
// direct-store push path. The baseline push is fire-and-forget, which
// is sound on a perfect fabric; under injected message loss the sender
// must detect the lost PUTX and resend it.
type ResilienceConfig struct {
	Enabled bool
	// PushTimeout is the base acknowledgement deadline in ticks; it
	// doubles with each retry (exponential backoff). Zero selects 4096,
	// comfortably past the worst fault-free push round trip.
	PushTimeout sim.Tick
	// MaxRetries bounds resends of one push before the run is failed
	// with a transaction dump. Zero selects 8.
	MaxRetries int
}

func (r ResilienceConfig) withDefaults() ResilienceConfig {
	if r.PushTimeout == 0 {
		r.PushTimeout = 4096
	}
	if r.MaxRetries == 0 {
		r.MaxRetries = 8
	}
	return r
}

// pendingPush is the sender-side state of one unacknowledged resilient
// push. gen invalidates stale timers: every retry decision bumps it, so
// a timeout armed for an earlier attempt fires as a no-op.
type pendingPush struct {
	msg     PutxMsg
	req     *memsys.Request
	target  *Ctrl
	attempt int
	gen     uint64
	done    bool
}

// AttachChaos installs fault-injection hooks on the controller.
func (c *Ctrl) AttachChaos(h *ChaosHooks) { c.hooks = h }

// EnableResilience switches the controller's push path to the
// ack/NACK + bounded-retry protocol.
func (c *Ctrl) EnableResilience(r ResilienceConfig) {
	r.Enabled = true
	c.res = r.withDefaults()
	c.pushPending = make(map[uint64]*pendingPush) //dstore:allow-alloc chaos setup, once per run
	c.appliedPush = make(map[uint64]bool)         //dstore:allow-alloc chaos setup, once per run
	c.lastPushVer = make(map[memsys.Addr]uint64)  //dstore:allow-alloc chaos setup, once per run
}

// SetFailureHandler routes fatal protocol failures (push retry
// exhaustion) to f instead of panicking. The harness uses this to fail
// the run with a diagnosis while keeping the process alive.
func (c *Ctrl) SetFailureHandler(f func(error)) { c.onFatal = f }

func (c *Ctrl) fail(err error) {
	if c.onFatal != nil {
		c.onFatal(err)
		return
	}
	panic(err)
}

// stallTicks draws an injected controller stall, or 0 without hooks.
func (c *Ctrl) stallTicks() sim.Tick {
	if c.hooks != nil && c.hooks.StallTicks != nil {
		return c.hooks.StallTicks()
	}
	return 0
}

// sendResilientPush allocates a sequence number for the push and sends
// the first attempt. The requester completes only when the slice's
// acknowledgement arrives.
func (c *Ctrl) sendResilientPush(p PutxMsg, req *memsys.Request, target *Ctrl) {
	c.pushSeq++
	p.Seq = c.pushSeq
	pp := &pendingPush{msg: p, req: req, target: target}
	c.pushPending[p.Seq] = pp
	c.sendPushAttempt(pp)
}

// sendPushAttempt transmits the push (over the dedicated link, or the
// crossbar under the §III-G ablation) and arms the ack timeout for the
// current attempt.
func (c *Ctrl) sendPushAttempt(pp *pendingPush) {
	p := pp.msg
	target := pp.target
	deliver := func(sim.Tick) { target.ReceivePutx(p, nil) }
	if c.cfg.DirectOverXbar {
		if c.cfg.DirectGetx {
			c.xbar.Send(c.port, target.port, interconnect.CtrlMsgBytes, nil)
		}
		c.xbar.Send(c.port, target.port, interconnect.DataMsgBytes, deliver)
	} else {
		if c.cfg.DirectGetx {
			c.directLink.Send(interconnect.CtrlMsgBytes, nil)
		}
		c.directLink.Send(interconnect.DataMsgBytes, deliver)
	}
	c.armPushTimer(pp, c.res.PushTimeout<<uint(pp.attempt))
}

// armPushTimer schedules a retry check after delay. The closure is
// generation-stamped: any retry decision made in the meantime (a NACK
// backoff, an earlier timeout) invalidates it.
func (c *Ctrl) armPushTimer(pp *pendingPush, delay sim.Tick) {
	gen := pp.gen
	c.engine.Schedule(delay, func() {
		if pp.done || pp.gen != gen {
			return
		}
		c.retryPush(pp)
	})
}

// retryPush resends an unacknowledged push, or fails the run with a
// transaction dump once the retry budget is exhausted.
func (c *Ctrl) retryPush(pp *pendingPush) {
	pp.gen++
	if pp.attempt >= c.res.MaxRetries {
		c.fail(fmt.Errorf(
			"coherence %s: direct-store push for line %#x (seq %d) unacknowledged after %d attempts\n%s",
			c.name, uint64(pp.msg.Addr), pp.msg.Seq, pp.attempt+1, c.mem.TransactionDump()))
		return
	}
	pp.attempt++
	c.pushRetries.Inc()
	c.sendPushAttempt(pp)
}

// receivePutxResilient is the receiver side of the resilient push:
// every delivery is acknowledged, injected faults NACK instead, and
// duplicates (from retries racing slow originals, or fault-injected
// duplication) are suppressed so a push applies at most once and a
// reordered stale push never regresses the line.
func (c *Ctrl) receivePutxResilient(p PutxMsg) {
	if c.hooks != nil && c.hooks.NackPush != nil && c.hooks.NackPush() {
		c.sendPushAck(p, true)
		return
	}
	// Sequence numbers are per-sender; this system has a single push
	// sender (the CPU controller), so a flat seq set suffices. The
	// version comparison handles reordering: global versions are
	// monotonic, so a same-line push with a lower version is stale.
	if PushStale(c.appliedPush[p.Seq], p.Ver, c.lastPushVer[p.Addr]) {
		c.sendPushAck(p, false) // re-ack so the sender stops retrying
		return
	}
	c.appliedPush[p.Seq] = true
	c.lastPushVer[p.Addr] = p.Ver
	c.applyPutx(p)
	c.sendPushAck(p, false)
}

// sendPushAck returns an acknowledgement (or NACK) to the push sender
// over the shared crossbar as a control message.
func (c *Ctrl) sendPushAck(p PutxMsg, nack bool) {
	sender := c.mem.peers[p.From]
	if sender == nil {
		panic(fmt.Sprintf("coherence %s: push ack for unknown sender %q", c.name, c.mem.peerName(p.From)))
	}
	ack := PushAckMsg{Addr: p.Addr, Seq: p.Seq, Nack: nack}
	c.xbar.Send(c.port, p.From, interconnect.CtrlMsgBytes, func(sim.Tick) {
		sender.receivePushAck(ack)
	})
}

// receivePushAck resolves one outstanding push: an ack completes the
// original store request; a NACK backs off exponentially and retries.
func (c *Ctrl) receivePushAck(a PushAckMsg) {
	pp := c.pushPending[a.Seq]
	if pp == nil || pp.done {
		return // duplicate ack from a retry whose original also landed
	}
	if a.Nack {
		c.pushNacks.Inc()
		pp.gen++
		c.armPushTimer(pp, c.res.PushTimeout<<uint(pp.attempt))
		return
	}
	pp.done = true
	delete(c.pushPending, a.Seq)
	c.complete(pp.req, c.cfg.L2HitLat)
}
