// Command dstore-modelcheck exhaustively verifies the coherence
// protocol's safety invariants (SWMR, data-value, MM-install) by
// explicit-state enumeration, and prints a minimal counterexample
// trace when one exists.
//
// With no configuration flags it runs the standard sweep — deep
// single-line configurations for every protocol flavour plus bounded
// two-line products (see modelcheck.StandardSweep). Any configuration
// flag switches to a single explicit run:
//
//	dstore-modelcheck                           # the standard sweep
//	dstore-modelcheck -mutate bypass-no-wbbuf   # re-introduce the PR 3 lost-store race
//	dstore-modelcheck -agents 2 -lines 1 -stores 3 -v
//	dstore-modelcheck -json -min-states 4196406 # CI: machine output + state floor
//	dstore-modelcheck -coverage internal/coherence/testdata/reachability.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"dstore/internal/coherence"
	"dstore/internal/modelcheck"
)

// runReport is the -json record for one configuration.
type runReport struct {
	Config      string                      `json:"config"`
	Workers     int                         `json:"workers"`
	States      int                         `json:"states"`
	Transitions int                         `json:"transitions"`
	MaxDepth    int                         `json:"max_depth"`
	Seconds     float64                     `json:"seconds"`
	Invariants  []modelcheck.InvariantCount `json:"invariants"`
	Violation   *violationReport            `json:"violation,omitempty"`
}

type violationReport struct {
	Message string   `json:"message"`
	Trace   []string `json:"trace"`
	Final   string   `json:"final"`
}

// sweepReport is the top-level -json document.
type sweepReport struct {
	Runs        []runReport `json:"runs"`
	TotalStates int         `json:"total_states"`
	Seconds     float64     `json:"seconds"`
	OK          bool        `json:"ok"`
}

// coverageFile is the reachability dump consumed by the tablecover
// analyzer: every (state, event) protocol-table row the model fired,
// named by source identifier so the analyzer can resolve them by
// package-scope lookup.
type coverageFile struct {
	Comment string         `json:"comment"`
	Pairs   []coveragePair `json:"pairs"`
}

type coveragePair struct {
	State string `json:"state"`
	Event string `json:"event"`
}

func main() {
	agents := flag.Int("agents", 3, "coherent agents (2 CPU + 1 GPU L2 slice = 3)")
	gpus := flag.Int("gpus", 0, "GPU L2 slices among the agents (0 = 1 slice)")
	lines := flag.Int("lines", 1, "cache lines")
	direct := flag.Int("direct", 0, "of those, direct-store region lines")
	stores := flag.Int("stores", 2, "total store/push budget (bounds the state space)")
	evicts := flag.Int("evicts", 0, "spontaneous eviction budget (0 = unbounded)")
	loads := flag.Int("loads", 0, "demand/remote load budget (0 = unbounded)")
	bypass := flag.Bool("bypass", true, "model the bypass-dirty-victim store flavour")
	wtPush := flag.Bool("wt-push", false, "write-through push ablation (install M, not MM)")
	resilient := flag.Bool("resilient", false, "model the seq-numbered ack/NACK push protocol")
	nacks := flag.Int("nacks", 1, "injected push NACK budget (resilient only)")
	dups := flag.Int("dups", 1, "duplicated push delivery budget (resilient only)")
	ordered := flag.Bool("ordered", false, "refine delivery to the crossbar's per-destination FIFO order")
	symmetry := flag.Bool("symmetry", false, "fold symmetric states (interchangeable agents/lines)")
	mutate := flag.String("mutate", "none", "re-introduce a known bug: none, skip-invalidate, bypass-no-wbbuf, push-install-s")
	workers := flag.Int("workers", 0, "BFS worker count (0 = GOMAXPROCS); results are identical at any count")
	jsonOut := flag.Bool("json", false, "emit a machine-readable JSON report on stdout")
	minStates := flag.Int("min-states", 0, "fail unless the run explores at least this many states (CI shrink guard)")
	coverage := flag.String("coverage", "", "write the fired (state, event) table rows to this JSON file")
	verbose := flag.Bool("v", false, "print per-config progress")
	flag.Parse()

	single := false
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "v", "json", "min-states", "coverage", "workers":
		default:
			single = true
		}
	})

	var configs []modelcheck.Config
	if single {
		mut, err := modelcheck.ParseMutation(*mutate)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dstore-modelcheck: %v\n", err)
			os.Exit(2)
		}
		cfg := modelcheck.Config{
			Agents:           *agents,
			GPUs:             *gpus,
			Lines:            *lines,
			DirectLines:      *direct,
			MaxStores:        *stores,
			MaxEvicts:        *evicts,
			MaxLoads:         *loads,
			Bypass:           *bypass,
			WriteThroughPush: *wtPush,
			Resilient:        *resilient,
			MaxNacks:         *nacks,
			MaxDups:          *dups,
			OrderedNet:       *ordered,
			Symmetry:         *symmetry,
			Mutation:         mut,
		}
		if !*resilient {
			cfg.MaxNacks, cfg.MaxDups = 0, 0
		}
		configs = []modelcheck.Config{cfg}
	} else {
		configs = modelcheck.StandardSweep()
	}

	opts := modelcheck.Options{Workers: *workers}
	if *coverage != "" {
		opts.Coverage = make(map[modelcheck.CoveragePair]bool)
	}

	report := sweepReport{OK: true}
	start := time.Now()
	for _, cfg := range configs {
		if *verbose || !single && !*jsonOut {
			fmt.Printf("checking %s\n", cfg)
		}
		cfgStart := time.Now()
		res, err := modelcheck.CheckOpts(cfg, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dstore-modelcheck: %v\n", err)
			os.Exit(2)
		}
		secs := time.Since(cfgStart).Seconds()
		run := runReport{
			Config:      cfg.String(),
			Workers:     res.Workers,
			States:      res.States,
			Transitions: res.Transitions,
			MaxDepth:    res.MaxDepth,
			Seconds:     secs,
			Invariants:  res.Invariants,
		}
		if res.Violation != nil {
			report.OK = false
			run.Violation = &violationReport{
				Message: res.Violation.Message,
				Trace:   res.Violation.Trace,
				Final:   res.Violation.Final,
			}
		}
		report.Runs = append(report.Runs, run)
		report.TotalStates += res.States
		if !*jsonOut {
			fmt.Printf("  %d states, %d transitions, depth %d, %.2fs\n",
				res.States, res.Transitions, res.MaxDepth, secs)
			if res.Violation != nil {
				fmt.Println(res.Violation.Error())
			}
		}
	}
	report.Seconds = time.Since(start).Seconds()

	if report.TotalStates < *minStates {
		report.OK = false
		fmt.Fprintf(os.Stderr, "dstore-modelcheck: state floor: explored %d states, floor is %d — the sweep shrank\n",
			report.TotalStates, *minStates)
	}
	if *coverage != "" {
		if err := writeCoverage(*coverage, opts.Coverage); err != nil {
			fmt.Fprintf(os.Stderr, "dstore-modelcheck: %v\n", err)
			os.Exit(2)
		}
		if !*jsonOut {
			fmt.Printf("wrote %d fired table rows to %s\n", len(opts.Coverage), *coverage)
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintf(os.Stderr, "dstore-modelcheck: %v\n", err)
			os.Exit(2)
		}
	}
	if !report.OK {
		os.Exit(1)
	}
	if !*jsonOut {
		fmt.Println("ok: no invariant violations")
	}
}

// writeCoverage renders the fired-pair set as the sorted JSON document
// tablecover consumes. Identifier names (not display names) make the
// file resolvable against the coherence package's scope.
func writeCoverage(path string, pairs map[modelcheck.CoveragePair]bool) error {
	doc := coverageFile{
		Comment: "generated by dstore-modelcheck -coverage (make reachability); " +
			"every (state, event) protocol-table row the standard sweep fires",
	}
	for p := range pairs { //dstore:allow-maprange sorted immediately below
		doc.Pairs = append(doc.Pairs, coveragePair{
			State: coherence.StateName(p.State),
			Event: coherence.EventIdent(p.Event),
		})
	}
	sort.Slice(doc.Pairs, func(i, j int) bool {
		if doc.Pairs[i].State != doc.Pairs[j].State {
			return doc.Pairs[i].State < doc.Pairs[j].State
		}
		return doc.Pairs[i].Event < doc.Pairs[j].Event
	})
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
