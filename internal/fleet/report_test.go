package fleet

import (
	"encoding/json"
	"reflect"
	"testing"
)

// TestBuildReport aggregates a fixed set of outcomes, handed over in
// completion order rather than matrix order: two jobs of one
// benchmark group with different ticks, a second group, one failed job
// and one result that does not parse. Every derived field is pinned.
func TestBuildReport(t *testing.T) {
	result := func(bench, mode string, ticks, xbar, direct uint64, miss float64) json.RawMessage {
		b, err := json.Marshal(resultDoc{Bench: bench, Mode: mode, Input: "small",
			Ticks: ticks, MissRate: miss, XbarBytes: xbar, DirectBytes: direct})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	outcomes := []Outcome{
		{Index: 3, ID: "dddddddd00", Error: "worker w1: simulation failed"},
		{Index: 1, ID: "bbbbbbbb00", Worker: "http://w1", Workers: 2,
			Result: result("MT", "direct-store", 900, 4000, 1000, 0.125)},
		{Index: 4, ID: "eeeeeeee00", Worker: "http://w1", Result: json.RawMessage(`{"bench":`)},
		{Index: 0, ID: "aaaaaaaa00", Worker: "http://w0", Cached: true,
			Result: result("MT", "direct-store", 1000, 3000, 500, 0.25)},
		{Index: 2, ID: "cccccccc00", Worker: "http://w0",
			Result: result("VA", "ccsm", 500, 9000, 0, 0.5)},
	}
	rep := new(Coordinator).buildReport("sweep1", 6, outcomes)

	wantText := "" +
		"BenchmarkSweep/MT/direct-store/small/aaaaaaaa 1 1000 ticks 3500 moved-bytes 0.25 miss-rate\n" +
		"BenchmarkSweep/MT/direct-store/small/bbbbbbbb 1 900 ticks 5000 moved-bytes 0.125 miss-rate\n" +
		"BenchmarkSweep/VA/ccsm/small/cccccccc 1 500 ticks 9000 moved-bytes 0.5 miss-rate\n"
	if rep.BenchText != wantText {
		t.Errorf("BenchText:\n%s\nwant:\n%s", rep.BenchText, wantText)
	}
	wantBest := []BestEntry{
		{Name: "BenchmarkSweep/MT/direct-store/small", Ticks: 900},
		{Name: "BenchmarkSweep/VA/ccsm/small", Ticks: 500},
	}
	if !reflect.DeepEqual(rep.Best, wantBest) {
		t.Errorf("Best = %+v, want %+v", rep.Best, wantBest)
	}
	wantFrontier := []FrontierPoint{
		{ID: "cccccccc00", Bench: "VA", Mode: "ccsm", Input: "small", Ticks: 500, Bytes: 9000},
		{ID: "bbbbbbbb00", Bench: "MT", Mode: "direct-store", Input: "small", Ticks: 900, Bytes: 5000},
		{ID: "aaaaaaaa00", Bench: "MT", Mode: "direct-store", Input: "small", Ticks: 1000, Bytes: 3500},
	}
	if !reflect.DeepEqual(rep.Frontier, wantFrontier) {
		t.Errorf("Frontier = %+v, want %+v", rep.Frontier, wantFrontier)
	}
	wantWorkers := []WorkerLoad{
		{URL: "http://w0", Jobs: 2, Cached: 1},
		{URL: "http://w1", Jobs: 2},
	}
	if !reflect.DeepEqual(rep.Workers, wantWorkers) {
		t.Errorf("Workers = %+v, want %+v", rep.Workers, wantWorkers)
	}
	if rep.SweepID != "sweep1" || rep.Total != 6 || rep.Completed != 5 || rep.Failed != 1 ||
		rep.Cached != 1 || rep.Failovers != 1 || !rep.Degraded {
		t.Errorf("totals: %+v", rep)
	}
	const wantErr = "job eeeeeeee: unparseable result: unexpected end of JSON input"
	if rep.BenchTextError != wantErr {
		t.Errorf("BenchTextError = %q, want %q", rep.BenchTextError, wantErr)
	}
}
