package fleet

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// resultDoc mirrors the fields of the worker's canonical result
// document the report aggregates over.
type resultDoc struct {
	Bench       string  `json:"bench"`
	Mode        string  `json:"mode"`
	Input       string  `json:"input"`
	Ticks       uint64  `json:"ticks"`
	MissRate    float64 `json:"miss_rate"`
	XbarBytes   uint64  `json:"xbar_bytes"`
	DirectBytes uint64  `json:"direct_bytes"`
}

// FrontierPoint is one Pareto-optimal sweep result: no other point in
// the sweep finished in fewer ticks AND moved fewer interconnect
// bytes. The frontier is the sweep's actionable output — every
// configuration off it is strictly dominated.
type FrontierPoint struct {
	ID    string `json:"id"`
	Bench string `json:"bench"`
	Mode  string `json:"mode"`
	Input string `json:"input"`
	Ticks uint64 `json:"ticks"`
	// Bytes is total interconnect traffic: crossbar plus direct-store
	// path.
	Bytes uint64 `json:"bytes"`
}

// BestEntry is the fewest ticks any job of one benchmark line
// (BenchText's name up to the job-ID segment) finished in.
type BestEntry struct {
	Name  string `json:"name"`
	Ticks uint64 `json:"ticks"`
}

// WorkerLoad is one worker's share of a sweep.
type WorkerLoad struct {
	URL    string `json:"url"`
	Jobs   int    `json:"jobs"`
	Cached int    `json:"cached"`
}

// Report is the aggregate computed when a sweep completes.
type Report struct {
	SweepID   string `json:"sweep_id"`
	Total     int    `json:"total"`
	Completed int    `json:"completed"`
	Failed    int    `json:"failed"`
	// Cached counts jobs answered from a worker cache (memory or
	// disk) without re-simulating.
	Cached int `json:"cached"`
	// Failovers counts jobs that needed more than one worker.
	Failovers int `json:"failovers"`
	// Degraded marks a completed sweep carrying failed jobs: the
	// results present are good, but the matrix is not fully covered.
	// Partial coverage is reported, never silently dropped — and never
	// fails the sweep wholesale.
	Degraded bool            `json:"degraded,omitempty"`
	Workers  []WorkerLoad    `json:"workers"`
	Frontier []FrontierPoint `json:"frontier"`
	Best     []BestEntry     `json:"best,omitempty"`
	// BenchText is the sweep rendered in `go test -bench` text format
	// (one line per job), so benchstat and similar tools read it as is.
	BenchText string `json:"bench_text"`
	// BenchTextError names a completed job whose result document did
	// not parse, so it is missing from BenchText, Best and Frontier.
	BenchTextError string `json:"bench_text_error,omitempty"`
}

// buildReport aggregates a finished sweep: per-worker load, the
// (ticks, bytes) Pareto frontier, the benchmark-text rendering and,
// per benchmark line, the fewest ticks.
func (c *Coordinator) buildReport(sweepID string, total int, outcomes []Outcome) *Report {
	rep := &Report{SweepID: sweepID, Total: total, Completed: len(outcomes)}
	rep.Degraded = rep.Completed < rep.Total

	byWorker := make(map[string]*WorkerLoad)
	type point struct {
		FrontierPoint
		index int
	}
	var pts []point
	// Render in matrix-expansion order so BenchText is deterministic
	// in the matrix, not in completion order.
	ordered := make([]Outcome, len(outcomes))
	copy(ordered, outcomes)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].Index < ordered[j].Index })

	var text strings.Builder
	best := make(map[string]uint64)
	for _, o := range ordered {
		if o.Error != "" {
			rep.Failed++
			rep.Degraded = true
			continue
		}
		if o.Cached {
			rep.Cached++
		}
		if o.Workers > 1 {
			rep.Failovers++
		}
		wl := byWorker[o.Worker]
		if wl == nil {
			wl = &WorkerLoad{URL: o.Worker}
			byWorker[o.Worker] = wl
		}
		wl.Jobs++
		if o.Cached {
			wl.Cached++
		}
		var doc resultDoc
		if err := json.Unmarshal(o.Result, &doc); err != nil {
			rep.BenchTextError = fmt.Sprintf("job %.8s: unparseable result: %v", o.ID, err)
			continue
		}
		bytes := doc.XbarBytes + doc.DirectBytes
		pts = append(pts, point{
			FrontierPoint: FrontierPoint{
				ID: o.ID, Bench: doc.Bench, Mode: doc.Mode, Input: doc.Input,
				Ticks: doc.Ticks, Bytes: bytes,
			},
			index: o.Index,
		})
		group := fmt.Sprintf("BenchmarkSweep/%s/%s/%s", doc.Bench, doc.Mode, doc.Input)
		fmt.Fprintf(&text, "%s/%.8s 1 %d ticks %d moved-bytes %g miss-rate\n",
			group, o.ID, doc.Ticks, bytes, doc.MissRate)
		if cur, seen := best[group]; !seen || doc.Ticks < cur {
			best[group] = doc.Ticks
		}
	}
	rep.BenchText = text.String()
	for _, name := range sortedKeys(best) {
		rep.Best = append(rep.Best, BestEntry{Name: name, Ticks: best[name]})
	}

	for _, u := range sortedKeys(byWorker) {
		rep.Workers = append(rep.Workers, *byWorker[u])
	}

	// Pareto frontier over (ticks, bytes), both minimized: sort by
	// ticks then bytes, keep every point that improves the running
	// bytes minimum. Ties on both axes keep the first in expansion
	// order.
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].Ticks != pts[j].Ticks {
			return pts[i].Ticks < pts[j].Ticks
		}
		if pts[i].Bytes != pts[j].Bytes {
			return pts[i].Bytes < pts[j].Bytes
		}
		return pts[i].index < pts[j].index
	})
	bestBytes := ^uint64(0)
	for _, p := range pts {
		if p.Bytes < bestBytes {
			bestBytes = p.Bytes
			rep.Frontier = append(rep.Frontier, p.FrontierPoint)
		}
	}
	return rep
}

// sortedKeys returns m's keys in sorted order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m { //dstore:allow-maprange sorted below
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
