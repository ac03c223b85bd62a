package bench

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"dstore/internal/core"
)

// subsetJobs builds default-config jobs for a fast benchmark subset.
func subsetJobs(codes ...string) []SweepJob {
	jobs := make([]SweepJob, len(codes))
	for i, code := range codes {
		jobs[i] = SweepJob{
			Code: code, In: Small,
			Base: core.DefaultConfig(core.ModeCCSM),
			DS:   core.DefaultConfig(core.ModeDirectStore),
		}
	}
	return jobs
}

// TestParallelSweepDeterminism is the guardrail that keeps parallelism
// honest: the same sweep run twice sequentially and once with many
// workers must produce deeply identical Result structs — ticks, phase
// ticks, miss counts, pushes and traffic bytes, not just headline
// numbers.
func TestParallelSweepDeterminism(t *testing.T) {
	jobs := subsetJobs("BP", "HT", "GC", "BL", "PT")
	seq1, err := SweepWithConfigs(jobs, SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	seq2, err := SweepWithConfigs(jobs, SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := SweepWithConfigs(jobs, SweepOptions{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq1, seq2) {
		t.Fatalf("two sequential sweeps diverged:\n%+v\nvs\n%+v", seq1, seq2)
	}
	if !reflect.DeepEqual(seq1, par) {
		t.Fatalf("parallel sweep diverged from sequential:\n%+v\nvs\n%+v", seq1, par)
	}
	for i, c := range par {
		if c.Code != jobs[i].Code {
			t.Errorf("result %d is %s, want %s: order not stable", i, c.Code, jobs[i].Code)
		}
	}
}

// TestStandardSweepParallelMatchesSequential checks the full Table II
// sweep gives deeply identical results on one worker and on four.
func TestStandardSweepParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("full Table II sweep in -short mode")
	}
	seq, err := SweepWithConfigs(StandardJobs(Small), SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := SweepWithConfigs(StandardJobs(Small), SweepOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatal("4-worker Table II sweep diverged from the sequential one")
	}
}

// TestSweepAttemptsEveryJob pins the sweep contract: a failing benchmark
// must not abort the sweep; every other job still runs and the error
// reports each failure with its position.
func TestSweepAttemptsEveryJob(t *testing.T) {
	jobs := subsetJobs("BP", "XX", "GC", "YY", "PT") // XX and YY do not exist
	results, err := SweepWithConfigs(jobs, SweepOptions{Workers: 2})
	if err == nil {
		t.Fatal("sweep with unknown benchmarks reported no error")
	}
	var se *SweepError
	if !errors.As(err, &se) {
		t.Fatalf("sweep error is %T, want *SweepError", err)
	}
	if len(se.Failures) != 2 {
		t.Fatalf("%d failures, want 2: %v", len(se.Failures), se)
	}
	if first, _, _ := strings.Cut(se.Error(), "\n"); first != "2 of 5 sweep jobs failed:" {
		t.Errorf("sweep error opens %q, want %q", first, "2 of 5 sweep jobs failed:")
	}
	if se.Failures[0].Index != 1 || se.Failures[0].Code != "XX" ||
		se.Failures[1].Index != 3 || se.Failures[1].Code != "YY" {
		t.Errorf("failures misattributed: %+v", se.Failures)
	}
	failed := se.FailedIndices()
	for i, c := range results {
		if failed[i] {
			continue
		}
		if c.CCSM.Ticks == 0 || c.DS.Ticks == 0 {
			t.Errorf("successful job %d (%s) has empty results despite sibling failure", i, jobs[i].Code)
		}
	}
}

func TestSweepErrorMessageListsAllFailures(t *testing.T) {
	se := &SweepError{Jobs: 6, Failures: []JobError{
		{Index: 0, Code: "XX", In: Small, Err: errors.New("boom")},
		{Index: 5, Code: "YY", In: Big, Err: errors.New("bang")},
	}}
	msg := se.Error()
	if first, _, _ := strings.Cut(msg, "\n"); first != "2 of 6 sweep jobs failed:" {
		t.Errorf("sweep error opens %q, want the failure count of the job count", first)
	}
	for _, want := range []string{"XX", "YY", "boom", "bang"} {
		if !strings.Contains(msg, want) {
			t.Errorf("sweep error %q missing %q", msg, want)
		}
	}
	if errs := se.Unwrap(); len(errs) != 2 {
		t.Errorf("Unwrap returned %d errors, want 2", len(errs))
	}
}

func TestSweepWorkerDefaults(t *testing.T) {
	if w := (SweepOptions{}).workers(100); w < 1 {
		t.Errorf("default workers %d, want >= 1", w)
	}
	if w := (SweepOptions{Workers: 16}).workers(3); w != 3 {
		t.Errorf("workers capped at %d, want 3 (job count)", w)
	}
	if w := (SweepOptions{Workers: -2}).workers(0); w != 1 {
		t.Errorf("workers on empty job list = %d, want 1", w)
	}
}

func TestStandardJobsCoverTable2(t *testing.T) {
	jobs := StandardJobs(Big)
	codes := Codes()
	if len(jobs) != len(codes) {
		t.Fatalf("%d jobs, want %d", len(jobs), len(codes))
	}
	for i, j := range jobs {
		if j.Code != codes[i] || j.In != Big {
			t.Errorf("job %d = %s/%s, want %s/big", i, j.Code, j.In, codes[i])
		}
		if j.Base.Mode != core.ModeCCSM || j.DS.Mode != core.ModeDirectStore {
			t.Errorf("job %d modes = %v vs %v", i, j.Base.Mode, j.DS.Mode)
		}
	}
}
