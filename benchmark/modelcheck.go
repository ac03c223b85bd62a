package main

import (
	"fmt"
	"time"

	"dstore/internal/modelcheck"
)

// standardStates is the state count of each modelcheck.StandardSweep
// configuration, in sweep order (4,196,406 in total). The checker is
// deterministic at any worker count, so a different count is a bug.
var standardStates = []int{779919, 9426, 473992, 19097, 1870575, 263848, 779549}

// Positions in StandardSweep of the configurations timed on their own:
// the 3-agent 2-line heap+direct product (BENCH_modelcheck.json's
// reference config) and the 4-agent 2-GPU-slice product.
const (
	refConfig  = 4
	gpu2Config = 6
)

// mcWorkers is the checker's BFS worker count: the two host threads.
const mcWorkers = 2

// modelCheck explores the protocol model checker's standard sweep. No
// simulator code runs. The seed permutes the configuration order.
type modelCheck struct {
	cfgs  []modelcheck.Config
	order []int // indices into cfgs and standardStates
	// timed names the per-layer metric each separately timed config's
	// check time goes to.
	timed map[int]string
}

func (m *modelCheck) setup(e *env) error {
	m.cfgs = modelcheck.StandardSweep()
	if len(m.cfgs) != len(standardStates) {
		return fmt.Errorf("modelcheck: standard sweep has %d configs, expected %d", len(m.cfgs), len(standardStates))
	}
	m.order = e.rng(0).Perm(len(m.cfgs))
	m.timed = map[int]string{refConfig: "modelcheck.ref_config_s", gpu2Config: "modelcheck.gpu2_config_s"}
	if e.scale == tinyScale {
		// The two smallest configs, standing in for the timed ones so
		// that their metrics are still produced.
		m.order = []int{1, 3}
		m.timed = map[int]string{1: "modelcheck.ref_config_s", 3: "modelcheck.gpu2_config_s"}
	}
	return nil
}

func (m *modelCheck) round(e *env, tr *tracer) (*roundStats, error) {
	rs := newRoundStats()
	var states, want, transitions int
	for _, i := range m.order {
		want += standardStates[i]
	}
	rs.start = time.Now()
	for _, i := range m.order {
		t0, t := time.Now(), tr.now()
		res, err := modelcheck.CheckOpts(m.cfgs[i], modelcheck.Options{Workers: mcWorkers})
		tr.add("modelcheck.check", 0, t)
		d := time.Since(t0)
		switch {
		case err != nil:
		case res.Violation != nil:
			err = fmt.Errorf("modelcheck %s: %s", m.cfgs[i], res.Violation.Message)
		case res.States != standardStates[i]:
			err = fmt.Errorf("modelcheck %s: %d states, want %d", m.cfgs[i], res.States, standardStates[i])
		}
		rs.op(err)
		if err != nil {
			continue
		}
		rs.addLat("config", d)
		states += res.States
		transitions += res.Transitions
		if name, ok := m.timed[i]; ok {
			rs.layer[name] = d.Seconds()
		}
	}
	rs.wall = time.Since(rs.start)
	rs.items = float64(states)
	rs.layer["modelcheck.states"] = float64(states)
	rs.layer["modelcheck.transitions"] = float64(transitions)
	if states != want {
		rs.fail(fmt.Errorf("modelcheck: %d states in total, want %d", states, want))
	}
	return rs, nil
}

func (m *modelCheck) verify(*env) []string { return nil }

func (m *modelCheck) layers(_ *env, untraced []*roundStats, traced *roundStats, _ *tracer, ls *layerSet) error {
	if err := ls.take(traced.layer, "modelcheck.states", "modelcheck.transitions"); err != nil {
		return err
	}
	var transitions, wall float64
	for _, r := range untraced {
		transitions += r.layer["modelcheck.transitions"]
		wall += r.wall.Seconds()
	}
	ls.m["modelcheck.transitions_per_s"] = ratio(transitions, wall)
	ls.m["modelcheck.ref_config_s"] = median(perRound(untraced, "modelcheck.ref_config_s"))
	ls.m["modelcheck.gpu2_config_s"] = median(perRound(untraced, "modelcheck.gpu2_config_s"))
	return nil
}

func (m *modelCheck) close() {}
