package analysis

import (
	"strings"
	"testing"
)

// all is the production analyzer set, in the order dstore-lint runs
// them.
func all() []*Analyzer {
	return []*Analyzer{Determinism, EventSafety, AllocFree, Tablecover, SpanBalance}
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
		{"determinism", 21, "time.Now in deterministic package"},
		{"determinism", 39, "range over map in deterministic package"},
		{"eventsafety", 53, "event callback calls Engine.Step"},
		{"eventsafety", 70, `event callback captures loop variable "i"`},
		{"allocfree", 90, "map allocation in hot-path package"},
		{"allocfree", 91, "map literal in hot-path package"},
		{"allocfree", 101, "new(FakeMsg) allocates a message"},
		{"allocfree", 102, "&FakeMsg{} allocates a message"},
		{"spanbalance", 118, "span from Recorder.Begin is discarded"},
		{"spanbalance", 125, "span from Recorder.Begin is discarded"},
		{"spanbalance", 131, `span "sp" is begun but never Ended`},
		{"eventsafety", 146, "event callback calls Engine.Step"},
		{"eventsafety", 149, "event callback calls Engine.Step"},
		{"eventsafety", 153, `event callback captures loop variable "i"`},
		{"eventsafety", 156, `event callback captures loop variable "i"`},
		{"eventsafety", 159, `event callback captures loop variable "i"`},
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
