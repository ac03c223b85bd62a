// Package chaos provides deterministic fault injection and a
// randomized coherence stress harness for the simulator.
//
// A FaultPlan draws every fault decision from a single seeded SplitMix64
// stream, so a (seed, profile) pair names one exact fault schedule: the
// same faults hit the same messages at the same ticks on every run.
// That turns "flaky under faults" into a reproducible bug report — a
// failing seed replays exactly.
//
// The injected fault classes are:
//
//   - delay jitter on the shared coherence network (per-pair FIFO is
//     preserved, so only the global interleaving is perturbed — the
//     protocol assumes point-to-point ordering, as real NoCs provide);
//   - drop, duplication and jitter on the dedicated direct-store link
//     (exercising the resilient ack/NACK push protocol);
//   - n-cycle controller stalls ahead of accesses and probes;
//   - receiver-side push NACKs (forcing sender backoff and retry);
//   - an optional protocol *mutation* (skip an invalidation) used to
//     prove the harness detects real violations.
package chaos

import (
	"fmt"
	"sort"

	"dstore/internal/coherence"
	"dstore/internal/core"
	"dstore/internal/interconnect"
	"dstore/internal/sim"
	"dstore/internal/stats"
)

// Profile sets the per-event fault probabilities and magnitudes. The
// zero value injects nothing.
type Profile struct {
	Name string

	// Shared coherence network: each delivery is delayed by a uniform
	// 1..NetJitterMax extra ticks with probability NetJitterProb.
	NetJitterProb float64
	NetJitterMax  sim.Tick

	// Dedicated direct-store link.
	PushDropProb   float64
	PushDupProb    float64
	PushJitterProb float64
	PushJitterMax  sim.Tick

	// Controller-side faults.
	StallProb float64
	StallMax  sim.Tick
	NackProb  float64

	// SkipInvalidateProb is the deliberate protocol bug (a peer keeps
	// its copy while acknowledging an invalidating probe). Any profile
	// with this non-zero is expected to FAIL invariant checking — it
	// exists to validate the harness's detection power.
	SkipInvalidateProb float64
}

// Mutation reports whether the profile injects a true protocol bug
// (expected to produce violations) rather than survivable faults.
func (p Profile) Mutation() bool { return p.SkipInvalidateProb > 0 }

// Profiles returns the named fault profiles, mildest first.
func Profiles() []Profile {
	return []Profile{
		{Name: "none"},
		{
			Name:          "light",
			NetJitterProb: 0.02, NetJitterMax: 8,
			PushJitterProb: 0.05, PushJitterMax: 16,
			StallProb: 0.01, StallMax: 4,
		},
		{
			Name:          "heavy",
			NetJitterProb: 0.10, NetJitterMax: 32,
			PushDropProb: 0.05, PushDupProb: 0.05,
			PushJitterProb: 0.20, PushJitterMax: 64,
			StallProb: 0.05, StallMax: 16,
			NackProb: 0.10,
		},
		{
			Name:         "drop-heavy",
			PushDropProb: 0.30, PushDupProb: 0.10,
			PushJitterProb: 0.30, PushJitterMax: 128,
			NackProb: 0.20,
		},
		{
			Name:               "mutation",
			SkipInvalidateProb: 0.2,
		},
	}
}

// ProfileByName looks up a named profile.
func ProfileByName(name string) (Profile, error) {
	for _, p := range Profiles() {
		if p.Name == name {
			return p, nil
		}
	}
	names := make([]string, 0, len(Profiles()))
	for _, p := range Profiles() {
		names = append(names, p.Name)
	}
	sort.Strings(names)
	return Profile{}, fmt.Errorf("chaos: unknown profile %q (have %v)", name, names)
}

// needsResilience reports whether the profile can lose or refuse pushes,
// which the fire-and-forget baseline cannot survive.
func (p Profile) needsResilience() bool {
	return p.PushDropProb > 0 || p.PushDupProb > 0 || p.NackProb > 0
}

// FaultPlan is a profile bound to a seeded PRNG: the complete,
// reproducible fault schedule for one run. One plan serves one System.
type FaultPlan struct {
	seed uint64
	prof Profile
	rng  *sim.Rand

	counters    *stats.Set
	injected    *stats.Counter
	netJitter   *stats.Counter
	pushDrops   *stats.Counter
	pushDups    *stats.Counter
	pushJitter  *stats.Counter
	stalls      *stats.Counter
	nacks       *stats.Counter
	skippedInvs *stats.Counter
}

// NewFaultPlan binds a profile to a seed.
func NewFaultPlan(seed uint64, prof Profile) *FaultPlan {
	f := &FaultPlan{
		seed:     seed,
		prof:     prof,
		rng:      sim.NewRand(seed),
		counters: stats.NewSet(),
	}
	f.injected = f.counters.Counter("faults_injected")
	f.netJitter = f.counters.Counter("net_jitter")
	f.pushDrops = f.counters.Counter("push_drops")
	f.pushDups = f.counters.Counter("push_dups")
	f.pushJitter = f.counters.Counter("push_jitter")
	f.stalls = f.counters.Counter("ctrl_stalls")
	f.nacks = f.counters.Counter("push_nacks")
	f.skippedInvs = f.counters.Counter("skipped_invalidates")
	return f
}

// Counters exposes the per-class fault counts (plus the
// "faults_injected" total).
func (f *FaultPlan) Counters() *stats.Set { return f.counters }

// Injected returns the total faults injected so far.
func (f *FaultPlan) Injected() uint64 { return f.injected.Value() }

// Profile returns the plan's profile.
func (f *FaultPlan) Profile() Profile { return f.prof }

// Seed returns the plan's seed.
func (f *FaultPlan) Seed() uint64 { return f.seed }

// draw decides one fault of probability p, counting it when it fires.
// Probability-zero faults consume no PRNG state, so enabling one fault
// class does not shift another class's schedule between profiles that
// share the remaining settings.
func (f *FaultPlan) draw(p float64, class *stats.Counter) bool {
	if p <= 0 || !f.rng.Bool(p) {
		return false
	}
	f.injected.Inc()
	class.Inc()
	return true
}

// magnitude draws a uniform 1..max tick count.
func (f *FaultPlan) magnitude(max sim.Tick) sim.Tick {
	if max <= 1 {
		return 1
	}
	return 1 + sim.Tick(f.rng.Uint64n(uint64(max)))
}

// Hooks builds the controller-side fault hooks.
func (f *FaultPlan) Hooks() *coherence.ChaosHooks {
	return &coherence.ChaosHooks{
		StallTicks: func() sim.Tick {
			if !f.draw(f.prof.StallProb, f.stalls) {
				return 0
			}
			return f.magnitude(f.prof.StallMax)
		},
		NackPush: func() bool {
			return f.draw(f.prof.NackProb, f.nacks)
		},
		SkipInvalidate: func() bool {
			return f.draw(f.prof.SkipInvalidateProb, f.skippedInvs)
		},
	}
}

// Config assembles the full core.ChaosConfig wiring for this plan:
// network and direct-link wrappers, controller hooks, the resilient
// push protocol whenever the profile can lose or refuse pushes, and
// the memory controller's stuck-transaction watchdog. onFailure
// receives fatal protocol failures (nil panics instead).
func (f *FaultPlan) Config(onFailure func(error)) *core.ChaosConfig {
	ch := &core.ChaosConfig{
		Hooks:     f.Hooks(),
		OnFailure: onFailure,
		// The watchdog limit is far beyond any legitimate transaction
		// latency (even queued behind a hot line under heavy stalls) so
		// it only fires on genuine loss of progress.
		WatchdogInterval: 1 << 16,
		WatchdogLimit:    1 << 20,
	}
	ch.Resilience.Enabled = f.prof.needsResilience()
	if f.prof.NetJitterProb > 0 {
		ch.WrapNet = func(e *sim.Engine, n interconnect.Network) interconnect.Network {
			return &chaosNet{inner: n, engine: e, f: f, lastPair: make(map[[2]interconnect.Port]sim.Tick)}
		}
	}
	if f.prof.PushDropProb > 0 || f.prof.PushDupProb > 0 || f.prof.PushJitterProb > 0 {
		ch.WrapDirect = func(e *sim.Engine, p interconnect.DirectPort) interconnect.DirectPort {
			return &chaosDirect{inner: p, engine: e, f: f}
		}
	}
	return ch
}

// chaosNet wraps the coherence network with delivery jitter. Per-pair
// FIFO order is preserved: a jittered message holds back later messages
// on the same (src, dst) pair instead of being overtaken, because the
// protocol (like real point-to-point ordered NoCs) assumes pairwise
// ordering — violating it would inject false bugs rather than stress.
type chaosNet struct {
	inner    interconnect.Network
	engine   *sim.Engine
	f        *FaultPlan
	lastPair map[[2]interconnect.Port]sim.Tick
}

func (n *chaosNet) Name() string                        { return n.inner.Name() }
func (n *chaosNet) Port(name string) interconnect.Port  { return n.inner.Port(name) }
func (n *chaosNet) PortName(p interconnect.Port) string { return n.inner.PortName(p) }
func (n *chaosNet) Counters() *stats.Set                { return n.inner.Counters() }
func (n *chaosNet) TotalBytes() uint64                  { return n.inner.TotalBytes() }
func (n *chaosNet) TotalMessages() uint64               { return n.inner.TotalMessages() }

func (n *chaosNet) Send(src, dst interconnect.Port, size int, deliver func(now sim.Tick)) sim.Tick {
	if deliver == nil {
		return n.inner.Send(src, dst, size, nil)
	}
	key := [2]interconnect.Port{src, dst}
	return n.inner.Send(src, dst, size, func(arr sim.Tick) {
		at := arr
		if n.f.draw(n.f.prof.NetJitterProb, n.f.netJitter) {
			at += n.f.magnitude(n.f.prof.NetJitterMax)
		}
		if last := n.lastPair[key]; at < last {
			at = last
		}
		n.lastPair[key] = at
		if at == arr {
			deliver(arr)
			return
		}
		n.engine.ScheduleAt(at, func() { deliver(at) })
	})
}

// SendArg funnels through Send: chaos wrapping is cold, so the adapter
// closure it allocates per message is irrelevant.
func (n *chaosNet) SendArg(src, dst interconnect.Port, size int, fn func(arg any, now sim.Tick), arg any) sim.Tick {
	if fn == nil {
		return n.Send(src, dst, size, nil)
	}
	return n.Send(src, dst, size, func(now sim.Tick) { fn(arg, now) })
}

// chaosDirect wraps the dedicated push link with message loss,
// duplication and jitter. Unlike the shared network, reordering IS
// allowed here: the resilient push protocol must tolerate a retried
// old push arriving after a newer same-line push, and the receiver's
// version check is exactly what this exercises.
type chaosDirect struct {
	inner  interconnect.DirectPort
	engine *sim.Engine
	f      *FaultPlan
}

func (d *chaosDirect) Name() string         { return d.inner.Name() }
func (d *chaosDirect) Counters() *stats.Set { return d.inner.Counters() }

func (d *chaosDirect) Send(size int, deliver func(now sim.Tick)) sim.Tick {
	if deliver == nil {
		return d.inner.Send(size, nil)
	}
	if d.f.draw(d.f.prof.PushDropProb, d.f.pushDrops) {
		// The message occupies the link and then vanishes in flight.
		return d.inner.Send(size, nil)
	}
	wrapped := func(arr sim.Tick) {
		if d.f.draw(d.f.prof.PushJitterProb, d.f.pushJitter) {
			at := arr + d.f.magnitude(d.f.prof.PushJitterMax)
			d.engine.ScheduleAt(at, func() { deliver(at) })
			return
		}
		deliver(arr)
	}
	arrival := d.inner.Send(size, wrapped)
	if d.f.draw(d.f.prof.PushDupProb, d.f.pushDups) {
		d.inner.Send(size, wrapped)
	}
	return arrival
}

// SendArg funnels through Send: chaos wrapping is cold, so the adapter
// closure it allocates per message is irrelevant.
func (d *chaosDirect) SendArg(size int, fn func(arg any, now sim.Tick), arg any) sim.Tick {
	if fn == nil {
		return d.Send(size, nil)
	}
	return d.Send(size, func(now sim.Tick) { fn(arg, now) })
}
