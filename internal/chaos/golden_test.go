package chaos

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"dstore/internal/core"
)

var update = flag.Bool("update", false, "rewrite the stress transcript goldens from current output")

// TestStressTranscriptGolden pins the full transcript of one seeded
// 2,000-op direct-store stress run per fault profile, byte for byte.
// The determinism test only compares two runs of the same binary; this
// one holds a transcript fixed across code changes, so any change in
// when or in what order a fault is drawn shows up as a diff in the
// fault, NACK, retry or tick counts. The mutation profile is expected
// to fail, and its violation lines are pinned too.
//
// Regenerate deliberately with:
// go test ./internal/chaos -run StressTranscriptGolden -update
func TestStressTranscriptGolden(t *testing.T) {
	for _, prof := range Profiles() {
		t.Run(prof.Name, func(t *testing.T) {
			res, err := RunStress(StressConfig{
				Seed: 1, Ops: 2000, Mode: core.ModeDirectStore, Profile: prof, Kernels: true,
			})
			if (err != nil) != prof.Mutation() {
				t.Fatalf("RunStress error = %v, want failure only under a mutation profile", err)
			}
			path := filepath.Join("testdata", "stress_"+prof.Name+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(res.Transcript), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with -update)", err)
			}
			if res.Transcript != string(want) {
				t.Errorf("transcript differs from %s:\n--- got\n%s--- want\n%s", path, res.Transcript, want)
			}
		})
	}
}
