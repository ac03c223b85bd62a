package modelcheck

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"dstore/internal/obs/obstest"
)

var update = flag.Bool("update", false, "rewrite testdata goldens from current checker output")

// sweepGolden pins the exploration of every standard-sweep
// configuration, one line per config.
const sweepGolden = "testdata/sweep.golden"

// TestStandardSweepClean exhaustively explores every standard-sweep
// configuration at one and at two workers, requires zero invariant
// violations, and compares states, transitions, depth and every
// invariant count with testdata/sweep.golden. Short mode skips the
// three largest members (largeSweepConfig) to stay fast; `make modelcheck` and CI run them all. Under the race
// detector only the two-worker run is made: the one-worker run has no
// concurrency to check and would double the package's race time.
//
// Regenerate deliberately with: go test ./internal/modelcheck -run StandardSweepClean -update
func TestStandardSweepClean(t *testing.T) {
	if *update && testing.Short() {
		t.Fatal("-update needs the full sweep; drop -short")
	}
	golden := map[string]string{}
	if !*update {
		raw, err := os.ReadFile(sweepGolden)
		if err != nil {
			t.Fatalf("%v (generate with -update)", err)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
			if cfg, rec, ok := strings.Cut(line, " | "); ok {
				golden[cfg] = rec
			}
		}
	}
	workerCounts := []int{1, 2}
	if raceEnabled {
		workerCounts = []int{2}
	}
	var lines []string
	for _, cfg := range StandardSweep() {
		t.Run(cfg.String(), func(t *testing.T) {
			if testing.Short() && largeSweepConfig(cfg) {
				t.Skip("large configuration skipped in -short mode")
			}
			for _, workers := range workerCounts {
				res, err := CheckOpts(cfg, Options{Workers: workers})
				if err != nil {
					t.Fatalf("Check(%s): %v", cfg, err)
				}
				if res.Violation != nil {
					t.Fatalf("invariant violation:\n%s", res.Violation.Error())
				}
				got := sweepRecord(res)
				switch {
				case *update && workers == workerCounts[0]:
					lines = append(lines, cfg.String()+" | "+got)
				case *update:
				case got != golden[cfg.String()]:
					t.Errorf("workers=%d:\n got %s\nwant %s", workers, got, golden[cfg.String()])
				}
			}
		})
	}
	if *update {
		if err := os.WriteFile(sweepGolden, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// largeSweepConfig reports whether cfg is one of the standard sweep's
// three largest members, which -short skips: the deep heap line and
// the two two-line products with two stores (heap+direct, 2-GPU).
func largeSweepConfig(cfg Config) bool {
	return cfg.Lines > 1 && cfg.MaxStores > 1 || cfg.Lines == 1 && cfg.Bypass
}

// sweepRecord renders the worker-count-independent part of a result.
func sweepRecord(res *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "states=%d transitions=%d max_depth=%d", res.States, res.Transitions, res.MaxDepth)
	for _, inv := range res.Invariants {
		fmt.Fprintf(&b, " %s=%d", inv.Name, inv.Checks)
	}
	return b.String()
}

// TestBypassNoWBBufRegression is the guarded PR 3 regression: with the
// bypassed store's write-through no longer parked in the writeback
// buffer, a GETS that beats the in-flight WB to the ordering point
// reads stale DRAM — the lost-store race the heavy-profile soak
// caught dynamically. The checker must find it, and the counterexample
// must be a real trace ending in a data-value violation.
func TestBypassNoWBBufRegression(t *testing.T) {
	v := mustViolate(t, bypassNoWBBuf.cfg, bypassNoWBBuf.golden)
	if !strings.Contains(v.Message, "data-value violation") {
		t.Errorf("want a data-value violation, got: %s", v.Message)
	}
	wantStep(t, v, "bypass store miss")
}

// TestSkipInvalidateCaught: acknowledging an invalidating probe while
// keeping the copy must surface as a SWMR violation.
func TestSkipInvalidateCaught(t *testing.T) {
	v := mustViolate(t, skipInvalidate.cfg, skipInvalidate.golden)
	if !strings.Contains(v.Message, "SWMR violation") {
		t.Errorf("want a SWMR violation, got: %s", v.Message)
	}
}

// TestPushInstallSCaught: installing a push in S instead of MM must
// trip the MM-install invariant (paper §III-F).
func TestPushInstallSCaught(t *testing.T) {
	v := mustViolate(t, pushInstallS.cfg, pushInstallS.golden)
	if !strings.Contains(v.Message, "MM-install") {
		t.Errorf("want the MM-install invariant, got: %s", v.Message)
	}
}

// mutationCase is a mutated configuration and the golden file of its
// counterexample report.
type mutationCase struct {
	cfg    Config
	golden string
}

// The three mutations the checker must catch.
var (
	bypassNoWBBuf = mutationCase{Config{
		Agents: 3, Lines: 1, MaxStores: 1, MaxEvicts: 1, MaxLoads: 2,
		Bypass: true, Mutation: MutBypassNoWBBuf,
	}, "testdata/bypass-no-wbbuf.golden"}
	skipInvalidate = mutationCase{Config{
		Agents: 3, Lines: 1, MaxStores: 1, MaxEvicts: 1, MaxLoads: 2,
		Mutation: MutSkipInvalidate,
	}, "testdata/skip-invalidate.golden"}
	pushInstallS = mutationCase{Config{
		Agents: 3, Lines: 1, DirectLines: 1, MaxStores: 1, MaxEvicts: 1, MaxLoads: 1,
		Mutation: MutPushInstallS,
	}, "testdata/push-install-s.golden"}
)

// mustViolate checks cfg and requires a violation with a coherent
// counterexample: non-empty, every step labelled, a rendered final
// state, and the full report equal to the golden file (regenerate
// deliberately with -update).
func mustViolate(t *testing.T, cfg Config, golden string) *Violation {
	t.Helper()
	res, err := Check(cfg)
	if err != nil {
		t.Fatalf("Check(%s): %v", cfg, err)
	}
	if res.Violation == nil {
		t.Fatalf("expected a violation for %s, state space was clean (%d states)", cfg, res.States)
	}
	v := res.Violation
	if len(v.Trace) == 0 {
		t.Fatalf("violation %q has an empty counterexample", v.Message)
	}
	for i, step := range v.Trace {
		if step == "?" || step == "" {
			t.Errorf("trace step %d is unlabelled", i+1)
		}
	}
	if v.Final == "" {
		t.Errorf("violation has no final-state rendering")
	}
	obstest.Golden(t, golden, v.Error(), *update)
	return v
}

// wantStep requires some trace step to mention substr.
func wantStep(t *testing.T, v *Violation, substr string) {
	t.Helper()
	for _, step := range v.Trace {
		if strings.Contains(step, substr) {
			return
		}
	}
	t.Errorf("no trace step mentions %q:\n%s", substr, strings.Join(v.Trace, "\n"))
}

// TestOrderedNetClean runs a small configuration under the
// crossbar-faithful per-destination FIFO refinement; it must agree
// with the unordered run on safety.
func TestOrderedNetClean(t *testing.T) {
	cfg := Config{Agents: 3, Lines: 1, MaxStores: 1, MaxEvicts: 1, MaxLoads: 2, OrderedNet: true}
	res, err := Check(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != nil {
		t.Fatalf("ordered-net violation:\n%s", res.Violation.Error())
	}
}

// TestConfigValidate rejects out-of-range configurations.
func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Agents: 1, Lines: 1, MaxStores: 1},
		{Agents: 5, Lines: 1, MaxStores: 1},
		{Agents: 3, Lines: 1, MaxStores: 1, GPUs: 3},
		{Agents: 2, Lines: 1, MaxStores: 1, GPUs: 2},
		{Agents: 2, Lines: 0, MaxStores: 1},
		{Agents: 2, Lines: 3, MaxStores: 1},
		{Agents: 2, Lines: 1, DirectLines: 2, MaxStores: 1},
		{Agents: 2, Lines: 1, MaxStores: maxSeqs + 1},
		{Agents: 2, Lines: 1, MaxStores: 1, MaxEvicts: 16},
		{Agents: 2, Lines: 1, MaxStores: 1, MaxLoads: 16},
	}
	for _, cfg := range bad {
		if _, err := Check(cfg); err == nil {
			t.Errorf("Check(%s): want a validation error", cfg)
		}
	}
}

// TestParseMutation round-trips every mutation name and rejects junk.
func TestParseMutation(t *testing.T) {
	for _, m := range []Mutation{MutNone, MutSkipInvalidate, MutBypassNoWBBuf, MutPushInstallS} {
		got, err := ParseMutation(m.String())
		if err != nil || got != m {
			t.Errorf("ParseMutation(%q) = %v, %v; want %v", m.String(), got, err, m)
		}
	}
	if _, err := ParseMutation("made-up"); err == nil {
		t.Error("ParseMutation accepted an unknown name")
	}
}
