package analysis

import (
	"strings"
	"testing"
)

// all is the production analyzer set, in the order dstore-lint runs
// them.
func all() []*Analyzer {
	return []*Analyzer{Determinism, StatsKey, EventSafety, AllocFree, Tablecover, SpanBalance}
}

// TestFixtureViolations loads the seeded-violation fixture by its
// explicit import path (wildcards skip testdata, so the production
// lint run never sees it) and checks that every analyzer catches its
// seeded violation — and that every annotated twin is suppressed,
// which the exact-count assertion enforces.
func TestFixtureViolations(t *testing.T) {
	diags, err := Run("", []string{"dstore/internal/analysis/testdata/src/fixture"}, all())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []struct {
		analyzer string
		line     int
		substr   string
	}{
		{"determinism", 10, "import of math/rand"},
		{"determinism", 20, "time.Now in deterministic package"},
		{"determinism", 38, "range over map in deterministic package"},
		{"statskey", 51, `unknown stats counter key "hitz"`},
		{"statskey", 57, "dynamic stats counter key passed to Set.Get"},
		{"statskey", 103, `unknown stats counter key "requests_getz"`},
		{"eventsafety", 71, "event callback calls Engine.Step"},
		{"eventsafety", 88, `event callback captures loop variable "i"`},
		{"allocfree", 115, "map allocation in hot-path package"},
		{"allocfree", 116, "map literal in hot-path package"},
		{"allocfree", 126, "new(FakeMsg) allocates a message"},
		{"allocfree", 127, "&FakeMsg{} allocates a message"},
		{"spanbalance", 143, "span from Recorder.Begin is discarded"},
		{"spanbalance", 150, "span from Recorder.Begin is discarded"},
		{"spanbalance", 156, `span "sp" is begun but never Ended`},
	}
	if len(diags) != len(want) {
		t.Errorf("got %d diagnostics, want %d:", len(diags), len(want))
		for _, d := range diags {
			t.Logf("  %s", d)
		}
	}
	for _, w := range want {
		found := false
		for _, d := range diags {
			if d.Analyzer == w.analyzer && d.Pos.Line == w.line && strings.Contains(d.Message, w.substr) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("missing %s diagnostic at fixture.go:%d containing %q", w.analyzer, w.line, w.substr)
		}
	}

	// The typo hints must point at the registered neighbours.
	for _, d := range diags {
		if strings.Contains(d.Message, `"hitz"`) && !strings.Contains(d.Message, `did you mean "hits"`) {
			t.Errorf("statskey diagnostic lacks typo hint: %s", d)
		}
		if strings.Contains(d.Message, `"requests_getz"`) && !strings.Contains(d.Message, `did you mean "requests_gets"`) {
			t.Errorf("statskey diagnostic lacks typo hint: %s", d)
		}
	}
}

// TestTablecoverFixture loads the tablecover fixture — a miniature
// protocol package with one seeded violation per rule (unhandled
// declared row, undeclared handler arm in ctrl.go and in core.go, dead
// transition) plus an annotated twin for each escape hatch — and checks
// every seed is caught and every twin suppressed. The fixture's only
// EvFill arm lives in core.go, so the count check also proves the core
// file's arms are scanned.
func TestTablecoverFixture(t *testing.T) {
	diags, err := Run("", []string{"dstore/internal/analysis/testdata/src/tablecover"}, all())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []struct {
		file   string
		line   int
		substr string
	}{
		{"ctrl.go", 31, "covers no declared table row (possible states I, events EvStore)"},
		{"core.go", 18, "covers no declared table row (possible states I, events EvEvict)"},
		{"table.go", 63, "declared transition (S, EvEvict) never fires"},
		{"table.go", 67, "declared transition (I, EvPush) has no handler arm"},
	}
	if len(diags) != len(want) {
		t.Errorf("got %d diagnostics, want %d:", len(diags), len(want))
		for _, d := range diags {
			t.Logf("  %s", d)
		}
	}
	for _, w := range want {
		found := false
		for _, d := range diags {
			if d.Analyzer == "tablecover" && strings.HasSuffix(d.Pos.Filename, w.file) &&
				d.Pos.Line == w.line && strings.Contains(d.Message, w.substr) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("missing tablecover diagnostic at %s:%d containing %q", w.file, w.line, w.substr)
		}
	}
}

// TestAppliesScoping checks the package filters: examples/ are exempt
// from the determinism contract, internal packages and commands are
// not — but commands sit in the entry-point tier (wall clock allowed,
// randomness and map-range still checked).
func TestAppliesScoping(t *testing.T) {
	cases := []struct {
		pkg        string
		want       bool
		entryPoint bool
	}{
		{"dstore", true, false},
		{"dstore/internal/sim", true, false},
		{"dstore/internal/fleet", true, false},
		{"dstore/internal/store", true, false},
		{"dstore/internal/analysis/testdata/src/fixture", true, false},
		{"dstore/cmd/dstore-lint", true, true},
		{"dstore/cmd/dstore-modelcheck", true, true},
		{"dstore/examples/bench", false, false},
		{"other/internal/sim", false, false},
	}
	for _, c := range cases {
		if got := isDeterministicPkg(c.pkg); got != c.want {
			t.Errorf("isDeterministicPkg(%q) = %v, want %v", c.pkg, got, c.want)
		}
		if got := isEntryPointPkg(c.pkg); got != c.entryPoint {
			t.Errorf("isEntryPointPkg(%q) = %v, want %v", c.pkg, got, c.entryPoint)
		}
	}
}

// TestTreeClean runs the full analyzer set over the whole repo — the
// same check `dstore-lint ./...` performs — and wants zero findings.
// Skipped in -short mode: it type-checks every package.
func TestTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole tree")
	}
	diags, err := Run("../..", []string{"./..."}, all())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, d := range diags {
		t.Errorf("unexpected finding: %s", d)
	}
}
