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

	ctr Counters
}

// NewFaultPlan binds a profile to a seed.
func NewFaultPlan(seed uint64, prof Profile) *FaultPlan {
	return &FaultPlan{seed: seed, prof: prof, rng: sim.NewRand(seed)}
}

// Counters are a fault plan's per-class fault counts plus their
// FaultsInjected total.
type Counters struct {
	FaultsInjected                             uint64
	NetJitter, PushDrops, PushDups, PushJitter uint64
	CtrlStalls, PushNacks, SkippedInvalidates  uint64
}

// Rows lists the counters by name.
func (c *Counters) Rows() stats.Rows {
	return stats.Rows{
		{Name: "faults_injected", N: &c.FaultsInjected},
		{Name: "net_jitter", N: &c.NetJitter},
		{Name: "push_drops", N: &c.PushDrops},
		{Name: "push_dups", N: &c.PushDups},
		{Name: "push_jitter", N: &c.PushJitter},
		{Name: "ctrl_stalls", N: &c.CtrlStalls},
		{Name: "push_nacks", N: &c.PushNacks},
		{Name: "skipped_invalidates", N: &c.SkippedInvalidates},
	}
}

// Get returns the named counter; an undeclared name panics.
func (c *Counters) Get(name string) uint64 { return c.Rows().Get(name) }

// Counters exposes the fault counts.
func (f *FaultPlan) Counters() *Counters { return &f.ctr }

// Profile returns the plan's profile.
func (f *FaultPlan) Profile() Profile { return f.prof }

// Seed returns the plan's seed.
func (f *FaultPlan) Seed() uint64 { return f.seed }

// draw decides one fault of probability p, counting it when it fires.
// Probability-zero faults consume no PRNG state, so enabling one fault
// class does not shift another class's schedule between profiles that
// share the remaining settings.
func (f *FaultPlan) draw(p float64, class *uint64) bool {
	if p <= 0 || !f.rng.Bool(p) {
		return false
	}
	f.ctr.FaultsInjected++
	*class++
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
			if !f.draw(f.prof.StallProb, &f.ctr.CtrlStalls) {
				return 0
			}
			return f.magnitude(f.prof.StallMax)
		},
		NackPush: func() bool {
			return f.draw(f.prof.NackProb, &f.ctr.PushNacks)
		},
		SkipInvalidate: func() bool {
			return f.draw(f.prof.SkipInvalidateProb, &f.ctr.SkippedInvalidates)
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
		Hooks:      f.Hooks(),
		OnFailure:  onFailure,
		Resilience: f.prof.needsResilience(),
	}
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
func (n *chaosNet) Counters() *interconnect.Counters    { return n.inner.Counters() }

// Send draws no fault itself: each delivery's jitter is drawn when the
// inner network delivers it, through netArrive.
func (n *chaosNet) Send(src, dst interconnect.Port, size int, fn func(arg any, now sim.Tick), arg any) sim.Tick {
	if fn == nil {
		return n.inner.Send(src, dst, size, nil, nil)
	}
	d := &netDelivery{n: n, key: [2]interconnect.Port{src, dst}, fn: fn, arg: arg}
	return n.inner.Send(src, dst, size, netArrive, d)
}

// netDelivery is one message in flight on a chaosNet: the sender's
// callback and the (src, dst) pair whose FIFO order it must keep.
type netDelivery struct {
	n   *chaosNet
	key [2]interconnect.Port
	fn  func(arg any, now sim.Tick)
	arg any
}

// netArrive runs at the inner network's arrival tick. It draws the
// delivery's jitter, holds it behind the pair's last delivery, and fires
// the sender's callback now or at the delayed tick.
func netArrive(arg any, arr sim.Tick) {
	d := arg.(*netDelivery)
	n := d.n
	at := arr
	if n.f.draw(n.f.prof.NetJitterProb, &n.f.ctr.NetJitter) {
		at += n.f.magnitude(n.f.prof.NetJitterMax)
	}
	if last := n.lastPair[d.key]; at < last {
		at = last
	}
	n.lastPair[d.key] = at
	if at == arr {
		d.fn(d.arg, arr)
		return
	}
	n.engine.ScheduleArgAt(at, d.fn, d.arg)
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

func (d *chaosDirect) Name() string                     { return d.inner.Name() }
func (d *chaosDirect) Counters() *interconnect.Counters { return d.inner.Counters() }

// Send draws the drop and the duplicate at send time; each copy's
// jitter is drawn when it arrives, through directArrive. A duplicate
// fires fn twice with the same arg.
func (d *chaosDirect) Send(size int, fn func(arg any, now sim.Tick), arg any) sim.Tick {
	if fn == nil {
		return d.inner.Send(size, nil, nil)
	}
	if d.f.draw(d.f.prof.PushDropProb, &d.f.ctr.PushDrops) {
		// The message occupies the link and then vanishes in flight.
		return d.inner.Send(size, nil, nil)
	}
	dl := &directDelivery{d: d, fn: fn, arg: arg}
	arrival := d.inner.Send(size, directArrive, dl)
	if d.f.draw(d.f.prof.PushDupProb, &d.f.ctr.PushDups) {
		d.inner.Send(size, directArrive, dl)
	}
	return arrival
}

// directDelivery is one push in flight on a chaosDirect, shared by its
// duplicate.
type directDelivery struct {
	d   *chaosDirect
	fn  func(arg any, now sim.Tick)
	arg any
}

// directArrive runs at the inner link's arrival tick: it draws the
// copy's jitter and fires the sender's callback now or later.
func directArrive(arg any, arr sim.Tick) {
	dl := arg.(*directDelivery)
	f := dl.d.f
	if f.draw(f.prof.PushJitterProb, &f.ctr.PushJitter) {
		dl.d.engine.ScheduleArgAt(arr+f.magnitude(f.prof.PushJitterMax), dl.fn, dl.arg)
		return
	}
	dl.fn(dl.arg, arr)
}
