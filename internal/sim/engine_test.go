package sim

import (
	"testing"
	"testing/quick"
)

func TestEngineStartsAtZero(t *testing.T) {
	e := NewEngine()
	if e.Now() != 0 {
		t.Fatalf("new engine at tick %d, want 0", e.Now())
	}
	if e.Pending() != 0 {
		t.Fatalf("new engine has %d pending events, want 0", e.Pending())
	}
}

func TestScheduleAndRunAdvancesClock(t *testing.T) {
	e := NewEngine()
	var fired Tick
	e.Schedule(42, func() { fired = e.Now() })
	end := e.Run()
	if fired != 42 {
		t.Errorf("event fired at tick %d, want 42", fired)
	}
	if end != 42 {
		t.Errorf("Run returned %d, want 42", end)
	}
}

func TestSameTickEventsRunInScheduleOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-tick order broken: got %v", order)
		}
	}
}

func TestZeroDelayRunsInCurrentTick(t *testing.T) {
	e := NewEngine()
	var innerTick Tick = 999
	e.Schedule(7, func() {
		e.Schedule(0, func() { innerTick = e.Now() })
	})
	e.Run()
	if innerTick != 7 {
		t.Errorf("zero-delay event ran at tick %d, want 7", innerTick)
	}
}

func TestEventsRunInTimeOrderRegardlessOfScheduleOrder(t *testing.T) {
	e := NewEngine()
	var order []Tick
	for _, d := range []Tick{50, 10, 30, 20, 40} {
		e.Schedule(d, func() { order = append(order, e.Now()) })
	}
	e.Run()
	want := []Tick{10, 20, 30, 40, 50}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("execution order %v, want %v", order, want)
		}
	}
}

func TestScheduleInPastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.ScheduleArgAt(5, func(any, Tick) {}, nil)
	})
	e.Run()
}

func TestScheduleNilPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Error("scheduling nil did not panic")
		}
	}()
	e.Schedule(1, nil)
}

func TestRunUntilStopsAtLimit(t *testing.T) {
	e := NewEngine()
	var fired []Tick
	for _, d := range []Tick{10, 20, 30} {
		e.Schedule(d, func() { fired = append(fired, e.Now()) })
	}
	drained := e.RunUntil(20)
	if drained {
		t.Error("RunUntil(20) reported drained with an event at 30 pending")
	}
	if len(fired) != 2 {
		t.Errorf("fired %v, want events at 10 and 20 only", fired)
	}
	if e.Now() != 20 {
		t.Errorf("clock at %d after RunUntil(20), want 20", e.Now())
	}
	if !e.RunUntil(100) {
		t.Error("second RunUntil did not drain")
	}
	if len(fired) != 3 {
		t.Errorf("after drain fired %v, want 3 events", fired)
	}
}

func TestRunUntilInclusiveOfLimitTick(t *testing.T) {
	e := NewEngine()
	ran := false
	e.Schedule(15, func() { ran = true })
	e.RunUntil(15)
	if !ran {
		t.Error("event exactly at the limit tick did not run")
	}
}

func TestRunForRelativeWindow(t *testing.T) {
	e := NewEngine()
	var fired []Tick
	e.Schedule(5, func() {
		fired = append(fired, e.Now())
		e.Schedule(5, func() { fired = append(fired, e.Now()) })
		e.Schedule(50, func() { fired = append(fired, e.Now()) })
	})
	e.RunFor(12)
	if len(fired) != 2 || fired[0] != 5 || fired[1] != 10 {
		t.Errorf("RunFor(12) fired %v, want [5 10]", fired)
	}
}

func TestStepSingleEvent(t *testing.T) {
	e := NewEngine()
	n := 0
	e.Schedule(1, func() { n++ })
	e.Schedule(2, func() { n++ })
	if !e.Step() {
		t.Fatal("Step returned false with events pending")
	}
	if n != 1 {
		t.Fatalf("after one Step n=%d, want 1", n)
	}
	if e.Step(); n != 2 {
		t.Fatalf("after two Steps n=%d, want 2", n)
	}
	if e.Step() {
		t.Error("Step returned true on empty queue")
	}
}

func TestExecutedCounter(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 25; i++ {
		e.Schedule(Tick(i), func() {})
	}
	e.Run()
	if e.Executed() != 25 {
		t.Errorf("Executed()=%d, want 25", e.Executed())
	}
}

func TestCascadedEvents(t *testing.T) {
	// An event chain where each event schedules the next models how
	// components hand work along; the clock must track each hop.
	e := NewEngine()
	hops := 0
	var hop func()
	hop = func() {
		hops++
		if hops < 100 {
			e.Schedule(3, hop)
		}
	}
	e.Schedule(3, hop)
	end := e.Run()
	if hops != 100 {
		t.Errorf("hops=%d, want 100", hops)
	}
	if end != 300 {
		t.Errorf("chain ended at tick %d, want 300", end)
	}
}

// Property: for any set of delays, events execute in non-decreasing time
// order and the engine ends at the max delay.
func TestPropertyEventTimeOrdering(t *testing.T) {
	f := func(delays []uint16) bool {
		if len(delays) == 0 {
			return true
		}
		e := NewEngine()
		var seen []Tick
		var maxd Tick
		for _, d := range delays {
			d := Tick(d)
			if d > maxd {
				maxd = d
			}
			e.Schedule(d, func() { seen = append(seen, e.Now()) })
		}
		end := e.Run()
		if end != maxd {
			return false
		}
		for i := 1; i < len(seen); i++ {
			if seen[i] < seen[i-1] {
				return false
			}
		}
		return len(seen) == len(delays)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRandDeterministic(t *testing.T) {
	a, b := NewRand(7), NewRand(7)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed generators diverged")
		}
	}
}

func TestRandSeedsDiffer(t *testing.T) {
	a, b := NewRand(1), NewRand(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds produced %d/100 identical values", same)
	}
}

func TestRandIntnRange(t *testing.T) {
	r := NewRand(3)
	for i := 0; i < 10000; i++ {
		v := r.Intn(17)
		if v < 0 || v >= 17 {
			t.Fatalf("Intn(17) = %d out of range", v)
		}
	}
}

func TestRandIntnPanicsOnNonPositive(t *testing.T) {
	r := NewRand(1)
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	r.Intn(0)
}

func TestRandFloat64Range(t *testing.T) {
	r := NewRand(9)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
	}
}

func TestRandBoolProbability(t *testing.T) {
	r := NewRand(11)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bool(0.25) {
			hits++
		}
	}
	got := float64(hits) / n
	if got < 0.23 || got > 0.27 {
		t.Errorf("Bool(0.25) hit rate %v, want ~0.25", got)
	}
}

func TestRandPermIsPermutation(t *testing.T) {
	r := NewRand(5)
	p := r.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("Perm produced invalid permutation %v", p)
		}
		seen[v] = true
	}
}

// Property: Uint64n always stays under its bound.
func TestPropertyUint64nBound(t *testing.T) {
	f := func(seed uint64, n uint64) bool {
		if n == 0 {
			n = 1
		}
		r := NewRand(seed)
		for i := 0; i < 50; i++ {
			if r.Uint64n(n) >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
