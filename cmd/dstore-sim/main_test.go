package main

import (
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dstore/internal/obs"
)

var update = flag.Bool("update", false, "rewrite testdata goldens from current output")

// runMain runs the CLI in process with the given arguments and returns
// what it printed to stdout.
func runMain(t *testing.T, args ...string) string {
	t.Helper()
	stdout, err := os.Create(filepath.Join(t.TempDir(), "stdout.txt"))
	if err != nil {
		t.Fatal(err)
	}
	oldArgs, oldOut, oldFlags := os.Args, os.Stdout, flag.CommandLine
	os.Args = append([]string{"dstore-sim"}, args...)
	os.Stdout = stdout
	flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	main()
	os.Args, os.Stdout, flag.CommandLine = oldArgs, oldOut, oldFlags
	if err := stdout.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(stdout.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestVerboseDumpGolden pins the -v output of MT small in both
// coherence modes: the summary table and every layer's counter dump,
// with its names, order, values and column alignment. Regenerate with
// -update only for a deliberate change to a counter or the dump format.
func TestVerboseDumpGolden(t *testing.T) {
	for _, mode := range []string{"ccsm", "direct-store"} {
		got := runMain(t, "-bench", "MT", "-input", "small", "-mode", mode, "-v")
		path := filepath.Join("testdata", fmt.Sprintf("verbose_mt_small_%s.golden", mode))
		if *update {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("%s: -v output differs from %s:\n%s", mode, path, got)
		}
	}
}

// TestObsExports runs the CLI in process with -trace, -timeline, -hist
// and -timeseries together and checks that every export parses: the
// Chrome trace as JSON with events, the timeline with its header and
// per-line sections, one text histogram per built-in histogram on
// stdout, and the time series as CSV with a data row under its header.
func TestObsExports(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "trace.json")
	timeline := filepath.Join(dir, "timeline.txt")
	series := filepath.Join(dir, "series.csv")
	text := runMain(t, "-bench", "MT", "-input", "small", "-mode", "direct-store",
		"-trace", trace, "-timeline", timeline, "-hist", "-timeseries", series)

	read := func(path string) string {
		t.Helper()
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(read(trace)), &doc); err != nil {
		t.Fatalf("trace is not valid Chrome trace JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}

	if tl := read(timeline); !strings.HasPrefix(tl, "# coherence state timeline") || !strings.Contains(tl, "\nline 0x") {
		t.Fatalf("timeline lacks its header or line sections:\n%.300s", tl)
	}

	for id := obs.HistID(0); id < obs.NumHists; id++ {
		if !strings.Contains(text, id.String()+": count=") {
			t.Errorf("stdout has no %s histogram:\n%s", id, text)
		}
	}

	rows, err := csv.NewReader(strings.NewReader(read(series))).ReadAll()
	if err != nil {
		t.Fatalf("time series is not valid CSV: %v", err)
	}
	if len(rows) < 2 || rows[0][0] != "epoch" {
		t.Fatalf("time series wants a header and a data row, got %d rows", len(rows))
	}
}

// TestScriptRun drives the README's example script in both coherence
// modes. The script path now ends with the coherence check a -json run
// gets, so a legitimate script must still print its summary table.
func TestScriptRun(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stream.dsim")
	src := "alloc buf 65536\ncpu st buf+0\ncpu st buf+128\nrun cpu\ngpu ld buf+0\ngpu ld buf+128\nrun gpu consume\n"
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{"ccsm", "direct-store"} {
		got := runMain(t, "-script", path, "-mode", mode)
		if want := "script " + path + " under " + mode + "\n\n"; !strings.HasPrefix(got, want) || !strings.Contains(got, "total ticks") {
			t.Errorf("%s: output lacks its header or summary table:\n%s", mode, got)
		}
	}
}
