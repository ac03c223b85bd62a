package bench

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"dstore/internal/core"
)

// mapStore is a trivial SnapshotStore for tests.
type mapStore struct {
	mu   sync.Mutex
	m    map[string][]byte
	puts int
	gets int
}

func newMapStore() *mapStore { return &mapStore{m: make(map[string][]byte)} }

func (s *mapStore) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.m[key]
	if ok {
		s.gets++
	}
	return b, ok
}

func (s *mapStore) Put(key string, snapshot []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[key] = append([]byte(nil), snapshot...)
	s.puts++
}

// TestSnapshotRoundTripGolden is the golden round-trip guarantee: a
// run resumed from a post-produce snapshot produces a byte-identical
// Result to the uninterrupted run, across benchmarks, modes and
// configurations.
func TestSnapshotRoundTripGolden(t *testing.T) {
	cases := []struct {
		code string
		mode core.Mode
		tune func(*core.Config)
	}{
		{"MM", core.ModeDirectStore, nil},
		{"MM", core.ModeCCSM, nil},
		{"BF", core.ModeDirectStore, nil},
		{"NW", core.ModeCCSM, func(c *core.Config) { c.GPUL2Policy = "srrip" }},
		{"MM", core.ModeDirectStore, func(c *core.Config) { c.NoC = "ring" }},
		{"MM", core.ModeDirectStore, func(c *core.Config) { c.RegionDirectory = true }},
	}
	for _, tc := range cases {
		cfg := core.DefaultConfig(tc.mode)
		if tc.tune != nil {
			tc.tune(&cfg)
		}
		name := tc.code + "/" + tc.mode.String()

		cold, err := RunWithConfig(tc.code, cfg, Small)
		if err != nil {
			t.Fatalf("%s: cold run: %v", name, err)
		}

		store := newMapStore()
		first, hit, err := RunWithSnapshotContext(context.Background(), tc.code, cfg, Small, store)
		if err != nil {
			t.Fatalf("%s: first memoized run: %v", name, err)
		}
		if hit {
			t.Fatalf("%s: first run reported a snapshot hit", name)
		}
		if store.puts != 1 {
			t.Fatalf("%s: first run stored %d snapshots, want 1", name, store.puts)
		}
		if !reflect.DeepEqual(cold, first) {
			t.Fatalf("%s: cold-path memoized result diverged:\ncold: %+v\nmemo: %+v", name, cold, first)
		}

		warm, hit, err := RunWithSnapshotContext(context.Background(), tc.code, cfg, Small, store)
		if err != nil {
			t.Fatalf("%s: warm run: %v", name, err)
		}
		if !hit {
			t.Fatalf("%s: warm run did not restore from snapshot", name)
		}
		if !reflect.DeepEqual(cold, warm) {
			t.Fatalf("%s: resumed result diverged from uninterrupted run:\ncold: %+v\nwarm: %+v", name, cold, warm)
		}
	}
}

// TestSnapshotPrefixSharedAcrossGPUConfigs checks the point of the
// scheme: jobs differing only in GPU-pipeline knobs share one
// produce-prefix snapshot, and the restored runs still match their
// own uninterrupted twins exactly.
func TestSnapshotPrefixSharedAcrossGPUConfigs(t *testing.T) {
	base := core.DefaultConfig(core.ModeDirectStore)
	varied := base
	varied.SMs = 8
	varied.MaxWarpsPerSM = base.MaxWarpsPerSM / 2
	varied.GPUL1Bytes = base.GPUL1Bytes * 2

	kb, okb := PrefixKey("MM", base, Small)
	kv, okv := PrefixKey("MM", varied, Small)
	if !okb || !okv {
		t.Fatal("MM/small should be memoizable")
	}
	if kb != kv {
		t.Fatalf("GPU-pipeline-only config change altered the prefix key:\n%s\n%s", kb, kv)
	}
	if kd, _ := PrefixKey("MM", base, Big); kd == kb {
		t.Fatal("input change did not alter the prefix key")
	}
	slice := base
	slice.GPUL2Bytes = base.GPUL2Bytes / 2
	if ks, _ := PrefixKey("MM", slice, Small); ks == kb {
		t.Fatal("L2 slice geometry change did not alter the prefix key (slices participate in produce)")
	}

	store := newMapStore()
	if _, hit, err := RunWithSnapshotContext(context.Background(), "MM", base, Small, store); err != nil || hit {
		t.Fatalf("seed run: hit=%v err=%v", hit, err)
	}

	coldVaried, err := RunWithConfig("MM", varied, Small)
	if err != nil {
		t.Fatalf("cold varied run: %v", err)
	}
	warmVaried, hit, err := RunWithSnapshotContext(context.Background(), "MM", varied, Small, store)
	if err != nil {
		t.Fatalf("warm varied run: %v", err)
	}
	if !hit {
		t.Fatal("varied-GPU job did not reuse the shared produce prefix")
	}
	if !reflect.DeepEqual(coldVaried, warmVaried) {
		t.Fatalf("cross-config resume diverged:\ncold: %+v\nwarm: %+v", coldVaried, warmVaried)
	}
}

// TestSnapshotIneligible pins the bypass conditions: unknown phase
// structure (GPU-initialised benchmarks) and chaos runs never
// memoize.
func TestSnapshotIneligible(t *testing.T) {
	cfg := core.DefaultConfig(core.ModeDirectStore)
	for _, code := range Codes() {
		p, ok := find(code)
		if !ok {
			t.Fatalf("unknown code %s", code)
		}
		_, eligible := PrefixKey(code, cfg, Small)
		if eligible != p.cpuProduces {
			t.Errorf("%s: eligible=%v, cpuProduces=%v", code, eligible, p.cpuProduces)
		}
	}
	chaotic := cfg
	chaotic.Chaos = &core.ChaosConfig{}
	if _, ok := PrefixKey("MM", chaotic, Small); ok {
		t.Error("chaos run reported memoizable")
	}
}

// TestSnapshotRestoreRejectsUnknownCounter corrupts one counter name in
// MM small's post-produce snapshot, keeping its length so the stream
// still decodes, and checks that restore fails on it instead of
// creating a stray counter and leaving the declared one at its old
// value.
func TestSnapshotRestoreRejectsUnknownCounter(t *testing.T) {
	cfg := core.DefaultConfig(core.ModeDirectStore)
	store := newMapStore()
	if _, _, err := RunWithSnapshotContext(context.Background(), "MM", cfg, Small, store); err != nil {
		t.Fatal(err)
	}
	var blob []byte
	for _, b := range store.m { //dstore:allow-maprange one entry
		blob = b
	}
	restore := func(data []byte) error {
		sys := core.NewSystem(cfg)
		if _, err := Build(sys, "MM", Small); err != nil {
			t.Fatal(err)
		}
		return sys.RestoreSnapshot(data)
	}
	if err := restore(blob); err != nil {
		t.Fatalf("intact snapshot: %v", err)
	}
	name, typo := []byte("total_latency"), []byte("total_latencz")
	if n := bytes.Count(blob, name); n != 1 {
		t.Fatalf("snapshot holds %q %d times, want once", name, n)
	}
	err := restore(bytes.Replace(blob, name, typo, 1))
	if err == nil || !strings.Contains(err.Error(), `"total_latencz"`) {
		t.Errorf("restore of a snapshot with a renamed counter: error %v, want one naming it", err)
	}
}

// snapshotGoldenFile pins the bytes of the post-produce snapshot, as
// RunWithSnapshotContext stores it, by SHA-256 and length. The
// round-trip tests only prove a snapshot restores to the same result;
// this one proves the encoding itself has not moved (for example, the
// line indices a controller's table writes). Regenerate deliberately
// with
//
//	go test ./internal/bench -run SnapshotBytesGolden -update
var snapshotGoldenFile = filepath.Join("testdata", "snapshot_small.txt")

func TestSnapshotBytesGolden(t *testing.T) {
	var b strings.Builder
	for _, mode := range []core.Mode{core.ModeDirectStore, core.ModeCCSM} {
		store := newMapStore()
		if _, _, err := RunWithSnapshotContext(context.Background(), "MM", core.DefaultConfig(mode), Small, store); err != nil {
			t.Fatal(err)
		}
		if len(store.m) != 1 {
			t.Fatalf("MM %s: %d snapshots stored, want 1", mode, len(store.m))
		}
		for _, blob := range store.m { //dstore:allow-maprange one entry
			sum := sha256.Sum256(blob)
			fmt.Fprintf(&b, "MM %s %s sha256=%s len=%d\n", Small, mode, hex.EncodeToString(sum[:]), len(blob))
		}
	}
	got := b.String()
	if *updateTraces {
		if err := os.WriteFile(snapshotGoldenFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(snapshotGoldenFile)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	if got != string(want) {
		t.Errorf("snapshot bytes drifted from %s:\n got:\n%s want:\n%s", snapshotGoldenFile, got, want)
	}
}

// TestSnapshotRestoreFailureRunsCold gives RunWithSnapshotContext a
// store whose entry for the job cannot be restored (a renamed counter,
// then a truncated stream). The run must fall back to a cold run with
// the uninterrupted Result, report no restore, and overwrite the entry
// with a good snapshot that the next run restores.
func TestSnapshotRestoreFailureRunsCold(t *testing.T) {
	cfg := core.DefaultConfig(core.ModeDirectStore)
	key, ok := PrefixKey("MM", cfg, Small)
	if !ok {
		t.Fatal("MM small should be memoizable")
	}
	cold, err := RunWithConfig("MM", cfg, Small)
	if err != nil {
		t.Fatal(err)
	}
	seed := newMapStore()
	if _, _, err := RunWithSnapshotContext(context.Background(), "MM", cfg, Small, seed); err != nil {
		t.Fatal(err)
	}
	good := seed.m[key]
	if good == nil {
		t.Fatal("seed run stored no snapshot under the job's prefix key")
	}
	bad := map[string][]byte{
		"renamed counter": bytes.Replace(good, []byte("total_latency"), []byte("total_latencz"), 1),
		"truncated":       good[:len(good)/2],
	}
	for _, name := range []string{"renamed counter", "truncated"} {
		store := newMapStore()
		store.m[key] = bad[name]
		got, restored, err := RunWithSnapshotContext(context.Background(), "MM", cfg, Small, store)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if restored {
			t.Errorf("%s: run reported a restore from an unrestorable snapshot", name)
		}
		if !reflect.DeepEqual(cold, got) {
			t.Errorf("%s: fallback result diverged from the cold run:\ncold: %+v\ngot:  %+v", name, cold, got)
		}
		if !bytes.Equal(store.m[key], good) {
			t.Errorf("%s: store was not refreshed with a good snapshot", name)
		}
		again, restored, err := RunWithSnapshotContext(context.Background(), "MM", cfg, Small, store)
		if err != nil || !restored {
			t.Errorf("%s: next run restored=%v err=%v, want a restore", name, restored, err)
		}
		if !reflect.DeepEqual(cold, again) {
			t.Errorf("%s: restored result diverged from the cold run", name)
		}
	}
}
