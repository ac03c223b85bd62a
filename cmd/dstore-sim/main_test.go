package main

import (
	"encoding/csv"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dstore/internal/obs"
)

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
	stdout, err := os.Create(filepath.Join(dir, "stdout.txt"))
	if err != nil {
		t.Fatal(err)
	}
	args, out := os.Args, os.Stdout
	os.Args = []string{"dstore-sim", "-bench", "MT", "-input", "small", "-mode", "direct-store",
		"-trace", trace, "-timeline", timeline, "-hist", "-timeseries", series}
	os.Stdout = stdout
	flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	main()
	os.Args, os.Stdout = args, out
	if err := stdout.Close(); err != nil {
		t.Fatal(err)
	}

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

	text := read(stdout.Name())
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
