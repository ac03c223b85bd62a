package bench

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"dstore/internal/core"
	"dstore/internal/sim"
)

// recycleGoldenFile pins what serve's golden_small.jsonl and
// snapshot_small.txt leave open: every Table II code's standalone
// Result at small input, and the post-produce snapshot of every code
// in all three modes. It was written by machines built from freshly
// allocated arrays, before machines were recycled. Regenerate only for
// a deliberate simulation change, with
//
//	go test ./internal/bench -run RecycledMachinesMatchFresh -update
var recycleGoldenFile = filepath.Join("testdata", "recycle_small.txt")

// resultRow is one line of serve's golden_small.jsonl.
type resultRow struct {
	Bench       string     `json:"bench"`
	Mode        string     `json:"mode"`
	Input       string     `json:"input"`
	Ticks       sim.Tick   `json:"ticks"`
	PhaseTicks  []sim.Tick `json:"phase_ticks"`
	L2Accesses  uint64     `json:"l2_accesses"`
	L2Misses    uint64     `json:"l2_misses"`
	MissRate    float64    `json:"miss_rate"`
	Pushes      uint64     `json:"pushes"`
	XbarBytes   uint64     `json:"xbar_bytes"`
	DirectBytes uint64     `json:"direct_bytes"`
}

func rowOf(r Result) resultRow {
	return resultRow{
		Bench: r.Code, Mode: r.Mode.String(), Input: r.In.String(),
		Ticks: r.Ticks, PhaseTicks: r.PhaseTicks,
		L2Accesses: r.L2Accesses, L2Misses: r.L2Misses, MissRate: r.MissRate,
		Pushes: r.Pushes, XbarBytes: r.XbarBytes, DirectBytes: r.DirectBytes,
	}
}

// TestRecycledMachinesMatchFresh runs every Table II code at small
// input in all three modes on machines built from recycled arrays and
// requires the Results and post-produce snapshot bytes of machines
// built fresh. Earlier runs in other modes fill the free lists with
// dirty arrays first, and the jobs run concurrently, so each machine
// draws arrays some other job left in an arbitrary state.
func TestRecycledMachinesMatchFresh(t *testing.T) {
	modes := []core.Mode{core.ModeCCSM, core.ModeDirectStore, core.ModeStandalone}
	codes := Codes()
	for i, code := range codes[:4] {
		mode := modes[i%len(modes)]
		if _, err := RunWithConfig(code, core.DefaultConfig(mode), Small); err != nil {
			t.Fatal(err)
		}
	}

	type job struct {
		code string
		mode core.Mode
	}
	var jobs []job
	for _, code := range codes {
		for _, mode := range modes {
			jobs = append(jobs, job{code, mode})
		}
	}
	results := make([]Result, len(jobs))
	snaps := make([]string, len(jobs))
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				store := newMapStore()
				res, _, err := RunWithSnapshotContext(context.Background(), jobs[i].code, core.DefaultConfig(jobs[i].mode), Small, store)
				if err != nil {
					t.Errorf("%s %s: %v", jobs[i].code, jobs[i].mode, err)
					continue
				}
				results[i], snaps[i] = res, "none"
				for _, blob := range store.m { //dstore:allow-maprange at most one entry
					sum := sha256.Sum256(blob)
					snaps[i] = fmt.Sprintf("sha256=%s len=%d", hex.EncodeToString(sum[:]), len(blob))
				}
			}
		}()
	}
	for i := range jobs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	if t.Failed() {
		return
	}

	raw, err := os.ReadFile(filepath.Join("..", "serve", "testdata", "golden_small.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	pinned := make(map[string]resultRow)
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		var r resultRow
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatal(err)
		}
		pinned[r.Bench+" "+r.Mode] = r
	}

	var b strings.Builder
	for i, j := range jobs {
		key := j.code + " " + j.mode.String()
		if j.mode == core.ModeStandalone {
			fmt.Fprintf(&b, "%s %+v snapshot %s\n", key, results[i], snaps[i])
			continue
		}
		fmt.Fprintf(&b, "%s snapshot %s\n", key, snaps[i])
		if want, ok := pinned[key]; !ok || !reflect.DeepEqual(rowOf(results[i]), want) {
			t.Errorf("%s: recycled machine returned %+v, golden_small.jsonl pins %+v", key, rowOf(results[i]), want)
		}
	}
	got := b.String()
	if *updateTraces {
		if err := os.WriteFile(recycleGoldenFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(recycleGoldenFile)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range gl {
			if i >= len(wl) || gl[i] != wl[i] {
				t.Errorf("recycled machines drifted from %s at line %d:\n got: %s", recycleGoldenFile, i+1, gl[i])
			}
		}
	}
}
