package bench

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dstore/internal/core"
)

// eventPinsFile pins the engine's executed-event count and the final
// tick of a few small runs. Results and digests only see ticks and
// counters; a host-speed change that alters the event sequence without
// moving them (an extra or a missing event per operation) shows here.
// Regenerate deliberately with
//
//	go test ./internal/bench -run EventPins -update
var eventPinsFile = filepath.Join("testdata", "events_small.txt")

func TestEventPins(t *testing.T) {
	var b strings.Builder
	for _, code := range []string{"BP", "NN", "MT"} {
		for _, mode := range []core.Mode{core.ModeCCSM, core.ModeDirectStore} {
			sys := core.NewSystem(core.DefaultConfig(mode))
			w, err := Build(sys, code, Small)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := w.RunPhaseRangeContext(context.Background(), sys, 0, w.Phases()); err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "%s %s %s events=%d ticks=%d\n", code, Small, mode, sys.Engine.Executed(), sys.Now())
		}
	}
	got := b.String()
	if *updateTraces {
		if err := os.WriteFile(eventPinsFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(eventPinsFile)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	if got != string(want) {
		t.Errorf("event counts or ticks drifted from %s:\n got:\n%s want:\n%s", eventPinsFile, got, want)
	}
}
