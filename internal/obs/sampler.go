package obs

import (
	"encoding/json"
	"fmt"
	"io"

	"dstore/internal/sim"
)

// Sample is one closed epoch window [Start, End) of the interval time
// series. Counter fields count events whose tick fell inside the
// window; Gauges holds the registered occupancy probes read at the
// window's closing boundary, in registration order.
type Sample struct {
	Epoch         uint64
	Start, End    sim.Tick
	GPUL2Accesses uint64
	GPUL2Misses   uint64
	Msgs          [NumMsgClasses]uint64
	Gauges        []uint64
}

// MissRate returns the window's GPU L2 miss rate (0 when idle).
func (s Sample) MissRate() float64 {
	if s.GPUL2Accesses == 0 {
		return 0
	}
	return float64(s.GPUL2Misses) / float64(s.GPUL2Accesses)
}

// sampler accumulates the current window and the closed series. Window
// boundaries fall on clock advances observed through the engine's
// advance hook, so sampling schedules no events of its own and a
// sampled run executes the identical event sequence as an unsampled
// one.
type sampler struct {
	epoch    sim.Tick
	cur      Sample
	out      []Sample
	finished bool
}

// Tick is the engine advance-hook entry point: it closes every epoch
// window the clock is about to cross. The hook fires before the engine
// publishes the new tick, so all events recorded so far are at ticks
// less than now and the closing gauge reads see pre-advance state.
// Nil-safe.
func (o *Observer) Tick(prev, now sim.Tick) {
	if o == nil || !o.opt.TimeSeries || o.sampler.finished {
		return
	}
	s := &o.sampler
	for b := s.cur.Start + s.epoch; now >= b; b += s.epoch {
		o.closeWindow(b)
	}
}

// FinishRun closes the final (possibly partial) window at the end-of-
// run tick. Further recording is ignored; calling it again is a no-op.
// Nil-safe.
func (o *Observer) FinishRun(now sim.Tick) {
	if o == nil || !o.opt.TimeSeries || o.sampler.finished {
		return
	}
	o.closeWindow(now)
	o.sampler.finished = true
}

// closeWindow seals the current window at end, reads the gauges, and
// opens the next window.
func (o *Observer) closeWindow(end sim.Tick) {
	s := &o.sampler
	s.cur.End = end
	if len(o.gauges) > 0 {
		s.cur.Gauges = make([]uint64, len(o.gauges))
		for i, g := range o.gauges {
			s.cur.Gauges[i] = g.probe()
		}
	}
	s.out = append(s.out, s.cur)
	s.cur = Sample{Epoch: s.cur.Epoch + 1, Start: end}
}

// Samples returns the closed windows in order (nil-safe).
func (o *Observer) Samples() []Sample {
	if o == nil {
		return nil
	}
	return o.sampler.out
}

// WriteSeriesCSV writes the time series as CSV: one header row, one row
// per closed window, message counts as msg_<TYPE> columns and gauges
// under their registered names. Nil-safe: writes the fixed header
// columns only.
func (o *Observer) WriteSeriesCSV(w io.Writer) error {
	if _, err := io.WriteString(w, "epoch,start,end,gpu_l2_accesses,gpu_l2_misses,miss_rate"); err != nil {
		return err
	}
	for c := MsgClass(0); c < NumMsgClasses; c++ {
		if _, err := fmt.Fprintf(w, ",msg_%s", c); err != nil {
			return err
		}
	}
	if o != nil {
		for _, g := range o.gauges {
			if _, err := fmt.Fprintf(w, ",%s", g.name); err != nil {
				return err
			}
		}
	}
	if _, err := io.WriteString(w, "\n"); err != nil {
		return err
	}
	for _, s := range o.Samples() {
		if _, err := fmt.Fprintf(w, "%d,%d,%d,%d,%d,%.6f",
			s.Epoch, uint64(s.Start), uint64(s.End),
			s.GPUL2Accesses, s.GPUL2Misses, s.MissRate()); err != nil {
			return err
		}
		for _, n := range s.Msgs {
			if _, err := fmt.Fprintf(w, ",%d", n); err != nil {
				return err
			}
		}
		for _, v := range s.Gauges {
			if _, err := fmt.Fprintf(w, ",%d", v); err != nil {
				return err
			}
		}
		if _, err := io.WriteString(w, "\n"); err != nil {
			return err
		}
	}
	return nil
}

// seriesRow is the JSON wire form of one Sample; maps marshal with
// sorted keys, so the output is deterministic.
type seriesRow struct {
	Epoch    uint64            `json:"epoch"`
	Start    uint64            `json:"start"`
	End      uint64            `json:"end"`
	Accesses uint64            `json:"gpu_l2_accesses"`
	Misses   uint64            `json:"gpu_l2_misses"`
	MissRate float64           `json:"miss_rate"`
	Msgs     map[string]uint64 `json:"msgs"`
	Gauges   map[string]uint64 `json:"gauges,omitempty"`
}

// WriteSeriesJSON writes the time series as a JSON array of window
// objects. Nil-safe: writes an empty array.
func (o *Observer) WriteSeriesJSON(w io.Writer) error {
	rows := []seriesRow{}
	for _, s := range o.Samples() {
		row := seriesRow{
			Epoch: s.Epoch, Start: uint64(s.Start), End: uint64(s.End),
			Accesses: s.GPUL2Accesses, Misses: s.GPUL2Misses,
			MissRate: s.MissRate(),
			Msgs:     make(map[string]uint64, NumMsgClasses),
		}
		for c := MsgClass(0); c < NumMsgClasses; c++ {
			row.Msgs[c.String()] = s.Msgs[c]
		}
		if len(s.Gauges) > 0 {
			row.Gauges = make(map[string]uint64, len(s.Gauges))
			for i, v := range s.Gauges {
				row.Gauges[o.gauges[i].name] = v
			}
		}
		rows = append(rows, row)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(rows)
}
