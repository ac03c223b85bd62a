package sim

import (
	"strings"
	"testing"
)

// TestStallGuardTripsOnLivelock checks a zero-delay event chain that
// never advances the clock panics with the watchdog diagnostic instead
// of spinning forever.
func TestStallGuardTripsOnLivelock(t *testing.T) {
	e := NewEngine()
	e.SetStallGuard(1000)
	var spin func()
	spin = func() { e.Schedule(0, spin) }
	e.Schedule(0, spin)
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("livelocked engine did not trip the stall guard")
		}
		msg, ok := p.(string)
		if !ok || !strings.Contains(msg, "livelock") {
			t.Fatalf("unexpected panic: %v", p)
		}
	}()
	e.Run()
}

// TestStallGuardResetsWhenClockAdvances checks legitimate same-tick
// cascades below the limit never trip, even repeated across many ticks
// — the counter must reset on every clock advance.
func TestStallGuardResetsWhenClockAdvances(t *testing.T) {
	e := NewEngine()
	e.SetStallGuard(100)
	executed := 0
	for tick := 0; tick < 50; tick++ {
		// 90 same-tick events per tick: under the limit individually,
		// far over it (4500) if the counter failed to reset.
		for i := 0; i < 90; i++ {
			e.ScheduleArgAt(Tick(tick), func(any, Tick) { executed++ }, nil)
		}
	}
	e.Run()
	if executed != 50*90 {
		t.Fatalf("executed %d events, want %d", executed, 50*90)
	}
}

// TestStallGuardDisabledByDefault checks an unarmed engine tolerates
// arbitrarily deep same-tick cascades.
func TestStallGuardDisabledByDefault(t *testing.T) {
	e := NewEngine()
	n := 0
	var chain func()
	chain = func() {
		n++
		if n < 5000 {
			e.Schedule(0, chain)
		}
	}
	e.Schedule(0, chain)
	e.Run()
	if n != 5000 {
		t.Fatalf("cascade stopped at %d", n)
	}
}
