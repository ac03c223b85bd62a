package coherence

import (
	"strings"
	"testing"

	"dstore/internal/memsys"
)

// wedge plants a transaction in the memory controller's busy set that
// no protocol event will ever finish — the shape of a lost unblock or
// dropped ack — and arms the scan loop.
func wedge(r *rig, line memsys.Addr, ty ReqType, from string) {
	r.mem.busy.put(line, &txn{
		req:     ReqMsg{Type: ty, Addr: line, From: r.xbar.Port(from)},
		started: r.e.Now(),
		TxnCore: TxnCore{Typ: ty, AcksWanted: 1},
	})
	r.mem.armWatchdog()
}

// TestWatchdogQuietOnHealthyTraffic checks the armed watchdog never
// fires on a normally completing workload and never keeps the event
// queue alive once the system drains.
func TestWatchdogQuietOnHealthyTraffic(t *testing.T) {
	r := newRig(t, 8, 4096, 2)
	var stuck error
	r.mem.EnableWatchdog(500, 50_000, func(err error) { stuck = err })
	for i := 0; i < 8; i++ {
		r.do(r.cpu, memsys.Store, line0+memsys.Addr(i)*memsys.LineSize, uint64(i+1))
		r.do(r.gpu, memsys.Load, line0+memsys.Addr(i)*memsys.LineSize, 0)
	}
	if stuck != nil {
		t.Fatalf("watchdog tripped on healthy traffic: %v", stuck)
	}
	if !r.mem.Idle() {
		t.Fatal("transactions still in flight after quiesce")
	}
}

// TestWatchdogTripsOnStuckTransaction wedges a transaction — the shape
// of a lost unblock — and checks the watchdog converts the hang into a
// failure carrying the full transaction dump.
func TestWatchdogTripsOnStuckTransaction(t *testing.T) {
	r := newRig(t, 8, 4096, 2)
	var stuck error
	r.mem.EnableWatchdog(500, 10_000, func(err error) { stuck = err })
	wedge(r, line0, GETS, "cpu")
	r.e.Run()
	if stuck == nil {
		t.Fatal("watchdog never tripped on a wedged transaction")
	}
	msg := stuck.Error()
	if !strings.Contains(msg, "stuck for") || !strings.Contains(msg, "transaction dump") {
		t.Fatalf("trip diagnostic missing transaction dump: %v", msg)
	}
	if !strings.Contains(msg, "GETS") || !strings.Contains(msg, "cpu") {
		t.Fatalf("dump does not identify the wedged request: %v", msg)
	}
	if !strings.Contains(msg, "acks 0/1, probesClean=false dramDone=false dataSent=false") {
		t.Fatalf("dump does not render the transaction core: %v", msg)
	}
}

// TestWatchdogTripsOnce checks a tripped watchdog reports a single
// failure and stops rescheduling scans, so the run terminates.
func TestWatchdogTripsOnce(t *testing.T) {
	r := newRig(t, 8, 4096, 2)
	trips := 0
	r.mem.EnableWatchdog(500, 5_000, func(error) { trips++ })
	wedge(r, line0, GETS, "cpu")
	wedge(r, line0+64*memsys.LineSize, GETX, "gpu0")
	r.e.Run()
	if trips != 1 {
		t.Fatalf("watchdog tripped %d times, want exactly 1", trips)
	}
}

// TestTransactionDumpDeterministicOrder checks the dump renders
// in-flight transactions in address order with a count, regardless of
// map iteration order.
func TestTransactionDumpDeterministicOrder(t *testing.T) {
	r := newRig(t, 8, 4096, 2)
	wedge(r, line0+64*memsys.LineSize, GETS, "gpu0")
	wedge(r, line0, GETX, "cpu")
	dump := r.mem.TransactionDump()
	if !strings.Contains(dump, "2 in flight") {
		t.Fatalf("dump does not count transactions: %s", dump)
	}
	first := strings.Index(dump, "GETX")
	second := strings.Index(dump, "GETS")
	if first < 0 || second < 0 || first > second {
		t.Fatalf("dump not in address order (GETX@line0 must precede GETS@line0+64):\n%s", dump)
	}
}
