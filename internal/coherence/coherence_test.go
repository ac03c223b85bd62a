package coherence

import (
	"strings"
	"testing"
	"testing/quick"

	"dstore/internal/cache"
	"dstore/internal/dram"
	"dstore/internal/interconnect"
	"dstore/internal/memsys"
	"dstore/internal/sim"
)

// rig wires a miniature version of the real topology: one CPU cache
// complex, one GPU L2 slice, a memory controller on a crossbar, and the
// dedicated direct-store link.
type rig struct {
	t      *testing.T
	e      *sim.Engine
	xbar   *interconnect.Crossbar
	mem    *MemCtrl
	cpu    *Ctrl
	gpu    *Ctrl
	direct *interconnect.Link
}

func newRig(t *testing.T, mshrs, cacheBytes, ways int) *rig {
	e := sim.NewEngine()
	xbar := interconnect.NewCrossbar(e, "xbar", 16, 32)
	d := dram.New(e, dram.DefaultConfig())
	var mem *MemCtrl
	agents := []interconnect.Port{xbar.Port("cpu"), xbar.Port("gpu0")}
	mem = NewMemCtrl(e, "mem", xbar, d, func(_ memsys.Addr, requester interconnect.Port) []interconnect.Port {
		switch requester {
		case agents[0]:
			return agents[1:]
		case agents[1]:
			return agents[:1]
		}
		return agents
	})
	l1cfg := cache.Config{Name: "cpu.l1d", SizeBytes: 1024, Ways: 2}
	cpu := NewCtrl(e, CtrlConfig{
		Name:     "cpu",
		L2:       cache.Config{Name: "cpu.l2", SizeBytes: cacheBytes, Ways: ways},
		L1:       &l1cfg,
		L1HitLat: 4, L2HitLat: 12, MSHRs: mshrs,
	}, xbar, mem)
	gpu := NewCtrl(e, CtrlConfig{
		Name:     "gpu0",
		L2:       cache.Config{Name: "gpu.l2", SizeBytes: cacheBytes, Ways: ways},
		L2HitLat: 12, MSHRs: mshrs,
	}, xbar, mem)
	direct := interconnect.NewLink(e, "direct", 20, 16)
	cpu.AttachDirectStore(direct, func(memsys.Addr) *Ctrl { return gpu })
	return &rig{t: t, e: e, xbar: xbar, mem: mem, cpu: cpu, gpu: gpu, direct: direct}
}

// do issues one access and runs the engine until it completes.
func (r *rig) do(c *Ctrl, typ memsys.AccessType, addr memsys.Addr, ver uint64) *memsys.Request {
	r.t.Helper()
	done := false
	req := &memsys.Request{Type: typ, Addr: addr, Ver: ver, Done: func(sim.Tick) { done = true }}
	c.Access(req)
	r.e.Run()
	if !done {
		r.t.Fatalf("%s %v @%#x did not complete", c.Name(), typ, uint64(addr))
	}
	return req
}

func (r *rig) remoteLoad(c *Ctrl, addr memsys.Addr) *memsys.Request {
	r.t.Helper()
	done := false
	req := &memsys.Request{Type: memsys.Load, Addr: addr, Done: func(sim.Tick) { done = true }}
	c.RemoteLoad(req)
	r.e.Run()
	if !done {
		r.t.Fatalf("remote load @%#x did not complete", uint64(addr))
	}
	return req
}

// checkExclusivity asserts the MOESI single-owner invariant over lines.
func (r *rig) checkExclusivity(lines []memsys.Addr) {
	r.t.Helper()
	for _, a := range lines {
		cs, gs := r.cpu.State(a), r.gpu.State(a)
		owners := 0
		for _, s := range []State{cs, gs} {
			if s == MM || s == M || s == O {
				owners++
			}
		}
		if owners > 1 {
			r.t.Errorf("line %#x has two owners: cpu=%s gpu=%s", uint64(a), StateName(cs), StateName(gs))
		}
		if (cs == MM || cs == M) && gs != I {
			r.t.Errorf("line %#x: cpu exclusive (%s) but gpu=%s", uint64(a), StateName(cs), StateName(gs))
		}
		if (gs == MM || gs == M) && cs != I {
			r.t.Errorf("line %#x: gpu exclusive (%s) but cpu=%s", uint64(a), StateName(gs), StateName(cs))
		}
	}
}

const line0 = memsys.Addr(0x10000)

func TestColdLoadGrantsExclusiveClean(t *testing.T) {
	r := newRig(t, 8, 4096, 2)
	req := r.do(r.cpu, memsys.Load, line0, 0)
	if st := r.cpu.State(line0); st != M {
		t.Errorf("state after cold load %s, want M", StateName(st))
	}
	if req.Ver != 0 {
		t.Errorf("cold load saw version %d, want 0 (memory)", req.Ver)
	}
	if r.mem.Counters().Get("data_from_dram") != 1 {
		t.Error("cold load not sourced from DRAM")
	}
}

func TestStoreGrantsModified(t *testing.T) {
	r := newRig(t, 8, 4096, 2)
	r.do(r.cpu, memsys.Store, line0, 7)
	if st := r.cpu.State(line0); st != MM {
		t.Errorf("state after store %s, want MM", StateName(st))
	}
	if r.cpu.Ver(line0) != 7 {
		t.Errorf("version %d, want 7", r.cpu.Ver(line0))
	}
}

func TestLoadAfterStoreHitsLocally(t *testing.T) {
	r := newRig(t, 8, 4096, 2)
	r.do(r.cpu, memsys.Store, line0, 7)
	before := r.mem.Counters().Get("requests")
	req := r.do(r.cpu, memsys.Load, line0, 0)
	if req.Ver != 7 {
		t.Errorf("load saw version %d, want 7", req.Ver)
	}
	if r.mem.Counters().Get("requests") != before {
		t.Error("local hit generated memory traffic")
	}
}

func TestSilentMToMMUpgrade(t *testing.T) {
	r := newRig(t, 8, 4096, 2)
	r.do(r.cpu, memsys.Load, line0, 0) // M
	before := r.mem.Counters().Get("requests")
	r.do(r.cpu, memsys.Store, line0, 3)
	if r.mem.Counters().Get("requests") != before {
		t.Error("M→MM upgrade generated a transaction")
	}
	if st := r.cpu.State(line0); st != MM {
		t.Errorf("state %s, want MM", StateName(st))
	}
}

func TestProducerConsumerTransfersData(t *testing.T) {
	r := newRig(t, 8, 4096, 2)
	r.do(r.cpu, memsys.Store, line0, 42) // CPU produces
	req := r.do(r.gpu, memsys.Load, line0, 0)
	if req.Ver != 42 {
		t.Errorf("GPU read version %d, want 42", req.Ver)
	}
	if st := r.cpu.State(line0); st != O {
		t.Errorf("producer state %s, want O (owner after sharing)", StateName(st))
	}
	if st := r.gpu.State(line0); st != S {
		t.Errorf("consumer state %s, want S", StateName(st))
	}
	if r.mem.Counters().Get("data_from_peer") != 1 {
		t.Error("data not sourced from the producing cache")
	}
	r.checkExclusivity([]memsys.Addr{line0})
}

func TestGetxInvalidatesOtherCopy(t *testing.T) {
	r := newRig(t, 8, 4096, 2)
	r.do(r.cpu, memsys.Store, line0, 1)
	r.do(r.gpu, memsys.Store, line0, 2)
	if st := r.cpu.State(line0); st != I {
		t.Errorf("old owner state %s, want I", StateName(st))
	}
	if st := r.gpu.State(line0); st != MM {
		t.Errorf("new owner state %s, want MM", StateName(st))
	}
	if r.gpu.Ver(line0) != 2 {
		t.Errorf("version %d, want 2", r.gpu.Ver(line0))
	}
	r.checkExclusivity([]memsys.Addr{line0})
}

func TestSharedToExclusiveUpgrade(t *testing.T) {
	r := newRig(t, 8, 4096, 2)
	r.do(r.cpu, memsys.Load, line0, 0) // cpu: M
	r.do(r.gpu, memsys.Load, line0, 0) // cpu: S, gpu: S
	if r.cpu.State(line0) != S && r.cpu.State(line0) != O {
		t.Fatalf("cpu state %s after share", StateName(r.cpu.State(line0)))
	}
	r.do(r.cpu, memsys.Store, line0, 9) // upgrade
	if st := r.cpu.State(line0); st != MM {
		t.Errorf("cpu state %s, want MM", StateName(st))
	}
	if st := r.gpu.State(line0); st != I {
		t.Errorf("gpu state %s, want I after invalidation", StateName(st))
	}
	if r.cpu.Counters().Get("upgrades") == 0 {
		t.Error("upgrade not counted")
	}
	req := r.do(r.gpu, memsys.Load, line0, 0)
	if req.Ver != 9 {
		t.Errorf("gpu re-read version %d, want 9", req.Ver)
	}
}

func TestEvictionWritebackReachesMemory(t *testing.T) {
	// 1-set, 1-way cache: second store evicts the first line.
	r := newRig(t, 8, memsys.LineSize, 1)
	a, b := line0, line0+memsys.LineSize
	r.do(r.cpu, memsys.Store, a, 5)
	r.do(r.cpu, memsys.Store, b, 6)
	if r.cpu.State(a) != I {
		t.Error("evicted line still resident")
	}
	if r.mem.MemVer(a) != 5 {
		t.Errorf("memory version %d, want 5 after writeback", r.mem.MemVer(a))
	}
	req := r.do(r.gpu, memsys.Load, a, 0)
	if req.Ver != 5 {
		t.Errorf("reader got version %d, want 5", req.Ver)
	}
}

func TestEvictionRaceProbeHitsWritebackBuffer(t *testing.T) {
	// Issue the evicting store and the remote read back-to-back without
	// draining, so the GPU's GETS can race the CPU's writeback.
	r := newRig(t, 8, memsys.LineSize, 1)
	a, b := line0, line0+memsys.LineSize
	r.do(r.cpu, memsys.Store, a, 5)
	var gotVer uint64
	done := 0
	stb := &memsys.Request{Type: memsys.Store, Addr: b, Ver: 6, Done: func(sim.Tick) { done++ }}
	ld := &memsys.Request{Type: memsys.Load, Addr: a, Done: func(now sim.Tick) { done++ }}
	r.cpu.Access(stb)
	r.gpu.Access(ld)
	r.e.Run()
	gotVer = ld.Ver
	if done != 2 {
		t.Fatalf("completed %d ops, want 2", done)
	}
	if gotVer != 5 {
		t.Errorf("racing reader got version %d, want 5", gotVer)
	}
	if !r.mem.Idle() {
		t.Error("memory controller left busy")
	}
}

func TestDirectStoreInstallsInGPUSlice(t *testing.T) {
	r := newRig(t, 8, 4096, 2)
	r.do(r.cpu, memsys.RemoteStore, line0, 11)
	if st := r.gpu.State(line0); st != MM {
		t.Errorf("slice state %s, want MM", StateName(st))
	}
	if r.gpu.Ver(line0) != 11 {
		t.Errorf("slice version %d, want 11", r.gpu.Ver(line0))
	}
	if st := r.cpu.State(line0); st != I {
		t.Errorf("cpu state %s, want I (never cached)", StateName(st))
	}
	if r.gpu.Counters().Get("pushes_received") != 1 {
		t.Error("push not counted")
	}
	if r.mem.Counters().Get("requests") != 0 {
		t.Error("direct store generated ordering-point traffic")
	}
	if r.direct.Counters().Get("messages") == 0 {
		t.Error("direct link unused")
	}
}

func TestDirectStoreFromValidLocalStateEndsInI(t *testing.T) {
	r := newRig(t, 8, 4096, 2)
	r.do(r.cpu, memsys.Store, line0, 1) // cpu MM
	r.do(r.cpu, memsys.RemoteStore, line0, 2)
	if st := r.cpu.State(line0); st != I {
		t.Errorf("cpu state %s, want I after remote store from MM", StateName(st))
	}
	if r.gpu.Ver(line0) != 2 || r.gpu.State(line0) != MM {
		t.Errorf("slice ver=%d state=%s", r.gpu.Ver(line0), StateName(r.gpu.State(line0)))
	}
	r.checkExclusivity([]memsys.Addr{line0})
}

func TestGPUReadAfterPushHitsLocally(t *testing.T) {
	r := newRig(t, 8, 4096, 2)
	r.do(r.cpu, memsys.RemoteStore, line0, 11)
	before := r.mem.Counters().Get("requests")
	req := r.do(r.gpu, memsys.Load, line0, 0)
	if req.Ver != 11 {
		t.Errorf("read version %d, want 11", req.Ver)
	}
	if r.mem.Counters().Get("requests") != before {
		t.Error("pushed line read generated a coherence transaction")
	}
}

func TestRemoteLoadReturnsPushedDataWithoutCaching(t *testing.T) {
	r := newRig(t, 8, 4096, 2)
	r.do(r.cpu, memsys.RemoteStore, line0, 13)
	req := r.remoteLoad(r.cpu, line0)
	if req.Ver != 13 {
		t.Errorf("remote load version %d, want 13", req.Ver)
	}
	if st := r.cpu.State(line0); st != I {
		t.Errorf("cpu cached an uncacheable line (state %s)", StateName(st))
	}
	if st := r.gpu.State(line0); st != MM {
		t.Errorf("slice state %s, want MM preserved", StateName(st))
	}
}

func TestRemoteLoadFromMemoryWhenSliceCold(t *testing.T) {
	r := newRig(t, 8, 4096, 2)
	req := r.remoteLoad(r.cpu, line0)
	if req.Ver != 0 {
		t.Errorf("remote load of cold line version %d, want 0", req.Ver)
	}
}

func TestPushSupersedesInFlightFill(t *testing.T) {
	r := newRig(t, 8, 4096, 2)
	// GPU load misses (DRAM path is slow); CPU push lands first over
	// the fast direct link.
	var loadVer uint64
	done := 0
	ld := &memsys.Request{Type: memsys.Load, Addr: line0, Done: func(sim.Tick) { done++ }}
	st := &memsys.Request{Type: memsys.RemoteStore, Addr: line0, Ver: 99, Done: func(sim.Tick) { done++ }}
	r.gpu.Access(ld)
	r.cpu.Access(st)
	r.e.Run()
	loadVer = ld.Ver
	if done != 2 {
		t.Fatalf("completed %d ops, want 2", done)
	}
	if r.gpu.State(line0) != MM || r.gpu.Ver(line0) != 99 {
		t.Errorf("slice state=%s ver=%d, want MM/99 (push must win)",
			StateName(r.gpu.State(line0)), r.gpu.Ver(line0))
	}
	if loadVer != 0 && loadVer != 99 {
		t.Errorf("load saw version %d, want 0 (pre-push) or 99", loadVer)
	}
}

func TestMSHRMergingSingleTransaction(t *testing.T) {
	r := newRig(t, 8, 4096, 2)
	done := 0
	for i := 0; i < 5; i++ {
		r.gpu.Access(&memsys.Request{Type: memsys.Load, Addr: line0 + memsys.Addr(i*8),
			Done: func(sim.Tick) { done++ }})
	}
	r.e.Run()
	if done != 5 {
		t.Fatalf("completed %d loads, want 5", done)
	}
	if got := r.mem.Counters().Get("requests"); got != 1 {
		t.Errorf("memory saw %d requests, want 1 (merged)", got)
	}
}

func TestMSHRFullStallEventuallyCompletes(t *testing.T) {
	r := newRig(t, 1, 4096, 2)
	done := 0
	for i := 0; i < 4; i++ {
		r.gpu.Access(&memsys.Request{Type: memsys.Load, Addr: line0 + memsys.Addr(i)*memsys.LineSize,
			Done: func(sim.Tick) { done++ }})
	}
	r.e.Run()
	if done != 4 {
		t.Fatalf("completed %d loads, want 4", done)
	}
	if r.gpu.Counters().Get("mshr_stalls") == 0 {
		t.Error("no stalls recorded with 1 MSHR and 4 distinct lines")
	}
}

func TestStoreMergedOntoLoadFillUpgrades(t *testing.T) {
	r := newRig(t, 8, 4096, 2)
	r.do(r.cpu, memsys.Load, line0, 0) // cpu holds a copy, so GPU's GETS grants S
	done := 0
	ld := &memsys.Request{Type: memsys.Load, Addr: line0, Done: func(sim.Tick) { done++ }}
	st := &memsys.Request{Type: memsys.Store, Addr: line0, Ver: 21, Done: func(sim.Tick) { done++ }}
	r.gpu.Access(ld)
	r.gpu.Access(st) // merges onto the outstanding fill
	r.e.Run()
	if done != 2 {
		t.Fatalf("completed %d ops, want 2", done)
	}
	if r.gpu.State(line0) != MM || r.gpu.Ver(line0) != 21 {
		t.Errorf("state=%s ver=%d, want MM/21", StateName(r.gpu.State(line0)), r.gpu.Ver(line0))
	}
	if r.cpu.State(line0) != I {
		t.Errorf("cpu not invalidated by merged store's upgrade: %s", StateName(r.cpu.State(line0)))
	}
}

func TestDirectGetxSendsExtraControlFlit(t *testing.T) {
	count := func(getx bool) uint64 {
		e := sim.NewEngine()
		xbar := interconnect.NewCrossbar(e, "xbar", 16, 32)
		d := dram.New(e, dram.DefaultConfig())
		mem := NewMemCtrl(e, "mem", xbar, d, func(memsys.Addr, interconnect.Port) []interconnect.Port { return nil })
		cpu := NewCtrl(e, CtrlConfig{
			Name: "cpu", L2: cache.Config{Name: "l2", SizeBytes: 4096, Ways: 2},
			L2HitLat: 12, MSHRs: 4, DirectGetx: getx,
		}, xbar, mem)
		gpu := NewCtrl(e, CtrlConfig{
			Name: "gpu0", L2: cache.Config{Name: "gl2", SizeBytes: 4096, Ways: 2},
			L2HitLat: 12, MSHRs: 4,
		}, xbar, mem)
		direct := interconnect.NewLink(e, "direct", 20, 16)
		cpu.AttachDirectStore(direct, func(memsys.Addr) *Ctrl { return gpu })
		cpu.Access(&memsys.Request{Type: memsys.RemoteStore, Addr: line0, Ver: 1})
		e.Run()
		return direct.Counters().Get("messages")
	}
	without, with := count(false), count(true)
	if with != without+1 {
		t.Errorf("GETX mode sent %d messages vs %d without, want exactly one more", with, without)
	}
}

// TestPropertySequentialConsistencyPerLine drives random sequential
// accesses from both agents and checks every load observes the version
// of the most recent completed store to its line.
func TestPropertySequentialConsistencyPerLine(t *testing.T) {
	f := func(ops []uint16) bool {
		r := newRig(t, 4, 2048, 2)
		lastVer := map[memsys.Addr]uint64{}
		nextVer := uint64(0)
		okAll := true
		for _, op := range ops {
			line := line0 + memsys.Addr(op%8)*memsys.LineSize
			agent := r.cpu
			if op&0x100 != 0 {
				agent = r.gpu
			}
			switch (op >> 9) % 3 {
			case 0: // load
				req := r.do(agent, memsys.Load, line, 0)
				if req.Ver != lastVer[line] {
					okAll = false
				}
			case 1: // store
				nextVer++
				r.do(agent, memsys.Store, line, nextVer)
				lastVer[line] = nextVer
			case 2: // direct store from the CPU
				nextVer++
				r.do(r.cpu, memsys.RemoteStore, line, nextVer)
				lastVer[line] = nextVer
			}
		}
		var lines []memsys.Addr
		for i := 0; i < 8; i++ {
			lines = append(lines, line0+memsys.Addr(i)*memsys.LineSize)
		}
		r.checkExclusivity(lines)
		return okAll
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestPropertyConcurrentSoup fires random overlapping requests, then
// checks structural invariants after the system drains: single owner
// per line, memory controller idle, and every request completed. Lines
// are partitioned the way the TLB partitions the address space: lines
// 0–3 are ordinary coherent memory (loads/stores from both agents),
// lines 4–7 are direct-store region (CPU writes only via pushes, GPU
// accesses freely) — mixing cacheable stores and pushes on one line is
// outside the protocol by construction (§III-E).
func TestPropertyConcurrentSoup(t *testing.T) {
	f := func(ops []uint16) bool {
		r := newRig(t, 4, 2048, 2)
		want := len(ops)
		done := 0
		nextVer := uint64(0)
		for _, op := range ops {
			lineIdx := int(op % 8)
			line := line0 + memsys.Addr(lineIdx)*memsys.LineSize
			directRegion := lineIdx >= 4
			agent := r.cpu
			if op&0x100 != 0 {
				agent = r.gpu
			}
			var ty memsys.AccessType
			switch (op >> 9) % 3 {
			case 0:
				ty = memsys.Load
			case 1:
				ty = memsys.Store
				nextVer++
			case 2:
				ty = memsys.RemoteStore
				nextVer++
			}
			if directRegion {
				// CPU never issues cacheable accesses to the direct
				// region; all its writes become pushes.
				if agent == r.cpu {
					if ty == memsys.Load {
						req := &memsys.Request{Type: ty, Addr: line, Done: func(sim.Tick) { done++ }}
						r.cpu.RemoteLoad(req)
						continue
					}
					ty = memsys.RemoteStore
				} else if ty == memsys.RemoteStore {
					ty = memsys.Store // only the CPU pushes
				}
			} else if ty == memsys.RemoteStore {
				ty = memsys.Store // ordinary region: no pushes
			}
			req := &memsys.Request{Type: ty, Addr: line, Ver: nextVer, Done: func(sim.Tick) { done++ }}
			agent.Access(req)
		}
		r.e.Run()
		if done != want {
			return false
		}
		if !r.mem.Idle() {
			return false
		}
		var lines []memsys.Addr
		for i := 0; i < 8; i++ {
			lines = append(lines, line0+memsys.Addr(i)*memsys.LineSize)
		}
		r.checkExclusivity(lines)
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestStateNames(t *testing.T) {
	for s, want := range map[State]string{I: "I", S: "S", O: "O", M: "M", MM: "MM"} {
		if StateName(s) != want {
			t.Errorf("StateName(%d) = %q, want %q", s, StateName(s), want)
		}
	}
	if StateName(99) == "" {
		t.Error("unknown state empty")
	}
	if GETS.String() != "GETS" || GETX.String() != "GETX" || WB.String() != "WB" || RemoteLoad.String() != "RemoteLoad" {
		t.Error("request type names wrong")
	}
	if PrbShare.String() != "PrbShare" || PrbInv.String() != "PrbInv" || PrbSnoop.String() != "PrbSnoop" {
		t.Error("probe kind names wrong")
	}
	if ReqType(99).String() == "" || ProbeKind(99).String() == "" {
		t.Error("unknown enum names empty")
	}
}

func TestCanReadCanWrite(t *testing.T) {
	if CanRead(I) {
		t.Error("CanRead(I)")
	}
	for _, s := range []State{S, O, M, MM} {
		if !CanRead(s) {
			t.Errorf("!CanRead(%s)", StateName(s))
		}
	}
	if !CanWrite(MM) {
		t.Error("!CanWrite(MM)")
	}
	for _, s := range []State{I, S, O, M} {
		if CanWrite(s) {
			t.Errorf("CanWrite(%s)", StateName(s))
		}
	}
}

func TestDirectOverXbarAblation(t *testing.T) {
	e := sim.NewEngine()
	xbar := interconnect.NewCrossbar(e, "xbar", 16, 32)
	d := dram.New(e, dram.DefaultConfig())
	mem := NewMemCtrl(e, "mem", xbar, d, func(memsys.Addr, interconnect.Port) []interconnect.Port { return nil })
	cpu := NewCtrl(e, CtrlConfig{
		Name: "cpu", L2: cache.Config{Name: "l2", SizeBytes: 4096, Ways: 2},
		L2HitLat: 12, MSHRs: 4, DirectOverXbar: true,
	}, xbar, mem)
	gpu := NewCtrl(e, CtrlConfig{
		Name: "gpu0", L2: cache.Config{Name: "gl2", SizeBytes: 4096, Ways: 2},
		L2HitLat: 12, MSHRs: 4,
	}, xbar, mem)
	direct := interconnect.NewLink(e, "direct", 20, 32)
	cpu.AttachDirectStore(direct, func(memsys.Addr) *Ctrl { return gpu })
	before := xbar.Counters().Bytes
	done := false
	cpu.Access(&memsys.Request{Type: memsys.RemoteStore, Addr: line0, Ver: 5,
		Done: func(sim.Tick) { done = true }})
	e.Run()
	if !done {
		t.Fatal("push did not complete")
	}
	if direct.Counters().Get("messages") != 0 {
		t.Error("ablation still used the dedicated link")
	}
	if xbar.Counters().Bytes == before {
		t.Error("push bytes did not ride the crossbar")
	}
	if gpu.State(line0) != MM || gpu.Ver(line0) != 5 {
		t.Error("push did not install")
	}
}

func TestPushWriteThroughAblation(t *testing.T) {
	e := sim.NewEngine()
	xbar := interconnect.NewCrossbar(e, "xbar", 16, 32)
	d := dram.New(e, dram.DefaultConfig())
	mem := NewMemCtrl(e, "mem", xbar, d, func(memsys.Addr, interconnect.Port) []interconnect.Port { return nil })
	cpu := NewCtrl(e, CtrlConfig{
		Name: "cpu", L2: cache.Config{Name: "l2", SizeBytes: 4096, Ways: 2},
		L2HitLat: 12, MSHRs: 4,
	}, xbar, mem)
	gpu := NewCtrl(e, CtrlConfig{
		Name: "gpu0", L2: cache.Config{Name: "gl2", SizeBytes: 4096, Ways: 2},
		L2HitLat: 12, MSHRs: 4, PushWriteThrough: true,
	}, xbar, mem)
	direct := interconnect.NewLink(e, "direct", 20, 32)
	cpu.AttachDirectStore(direct, func(memsys.Addr) *Ctrl { return gpu })
	done := false
	cpu.Access(&memsys.Request{Type: memsys.RemoteStore, Addr: line0, Ver: 9,
		Done: func(sim.Tick) { done = true }})
	e.Run()
	if !done {
		t.Fatal("push did not complete")
	}
	if st := gpu.State(line0); st != M {
		t.Errorf("write-through push installed %s, want M (exclusive clean)", StateName(st))
	}
	if mem.MemVer(line0) != 9 {
		t.Errorf("memory version %d, want 9 (write-through)", mem.MemVer(line0))
	}
	// Clean eviction must be silent and lose nothing: evict by filling
	// the set, then re-read.
	gpu.Access(&memsys.Request{Type: memsys.Load, Addr: line0 + 16*memsys.LineSize})
	gpu.Access(&memsys.Request{Type: memsys.Load, Addr: line0 + 32*memsys.LineSize})
	e.Run()
	req := &memsys.Request{Type: memsys.Load, Addr: line0, Done: func(sim.Tick) {}}
	gpu.Access(req)
	e.Run()
	if req.Ver != 9 {
		t.Errorf("re-read after clean eviction saw version %d, want 9", req.Ver)
	}
}

func TestPushOverflowToDRAM(t *testing.T) {
	// A 1-set/1-way slice: the second push must overflow to DRAM per
	// §III-A ("if the GPU L2 cache is full, the system then writes
	// data to DRAM"), not evict the first.
	e := sim.NewEngine()
	xbar := interconnect.NewCrossbar(e, "xbar", 16, 32)
	d := dram.New(e, dram.DefaultConfig())
	mem := NewMemCtrl(e, "mem", xbar, d, func(memsys.Addr, interconnect.Port) []interconnect.Port { return nil })
	cpu := NewCtrl(e, CtrlConfig{
		Name: "cpu", L2: cache.Config{Name: "l2", SizeBytes: 4096, Ways: 2},
		L2HitLat: 12, MSHRs: 4,
	}, xbar, mem)
	gpu := NewCtrl(e, CtrlConfig{
		Name: "gpu0", L2: cache.Config{Name: "gl2", SizeBytes: memsys.LineSize, Ways: 1},
		L2HitLat: 12, MSHRs: 4,
	}, xbar, mem)
	direct := interconnect.NewLink(e, "direct", 20, 32)
	cpu.AttachDirectStore(direct, func(memsys.Addr) *Ctrl { return gpu })
	a, b := line0, line0+memsys.LineSize
	cpu.Access(&memsys.Request{Type: memsys.RemoteStore, Addr: a, Ver: 1})
	e.Run()
	cpu.Access(&memsys.Request{Type: memsys.RemoteStore, Addr: b, Ver: 2})
	e.Run()
	if gpu.State(a) != MM {
		t.Error("first push evicted by overflow push")
	}
	if gpu.Counters().Get("pushes_overflowed") != 1 {
		t.Errorf("overflows = %d, want 1", gpu.Counters().Get("pushes_overflowed"))
	}
	if mem.MemVer(b) != 2 {
		t.Errorf("overflowed push version %d in memory, want 2", mem.MemVer(b))
	}
	// Reading the overflowed line returns the pushed data.
	req := &memsys.Request{Type: memsys.Load, Addr: b, Done: func(sim.Tick) {}}
	gpu.Access(req)
	e.Run()
	if req.Ver != 2 {
		t.Errorf("read of overflowed line saw version %d, want 2", req.Ver)
	}
}

// TestProbeMatrix exercises every stable state against every probe
// kind, checking the resulting local state and the data movement
// (Fig. 3's table in test form).
func TestProbeMatrix(t *testing.T) {
	// prepare puts the CPU cache into the wanted state for line0.
	prepare := map[State]func(r *rig){
		S: func(r *rig) {
			r.do(r.cpu, memsys.Load, line0, 0) // M at cpu
			r.do(r.gpu, memsys.Load, line0, 0) // cpu drops to S, gpu S
		},
		O: func(r *rig) {
			r.do(r.cpu, memsys.Store, line0, 5) // MM
			r.do(r.gpu, memsys.Load, line0, 0)  // cpu O, gpu S
		},
		M:  func(r *rig) { r.do(r.cpu, memsys.Load, line0, 0) },
		MM: func(r *rig) { r.do(r.cpu, memsys.Store, line0, 5) },
	}
	// For each prepared state, what should a GPU access do to the CPU?
	cases := []struct {
		name     string
		state    State
		gpuOp    memsys.AccessType
		wantCPU  []State // acceptable CPU states afterwards
		fromPeer bool    // data must come cache-to-cache
	}{
		{"S+GETS", S, memsys.Load, []State{S}, false},
		{"O+GETS", O, memsys.Load, []State{O}, true},
		{"M+GETS", M, memsys.Load, []State{S}, true},
		{"MM+GETS", MM, memsys.Load, []State{O}, true},
		{"S+GETX", S, memsys.Store, []State{I}, false},
		{"O+GETX", O, memsys.Store, []State{I}, true},
		{"M+GETX", M, memsys.Store, []State{I}, true},
		{"MM+GETX", MM, memsys.Store, []State{I}, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := newRig(t, 8, 4096, 2)
			prepare[c.state](r)
			if got := r.cpu.State(line0); got != c.state {
				t.Fatalf("setup state %s, want %s", StateName(got), StateName(c.state))
			}
			// Drop any GPU copy the setup left behind (a clean S may be
			// dropped silently), so the access below really probes.
			r.gpu.L2Cache().Invalidate(line0)
			before := r.mem.Counters().Get("data_from_peer")
			r.do(r.gpu, c.gpuOp, line0, 77)
			got := r.cpu.State(line0)
			ok := false
			for _, w := range c.wantCPU {
				if got == w {
					ok = true
				}
			}
			if !ok {
				t.Errorf("CPU state after probe %s, want one of %v", StateName(got), c.wantCPU)
			}
			gotPeer := r.mem.Counters().Get("data_from_peer") > before
			if gotPeer != c.fromPeer {
				t.Errorf("data_from_peer = %v, want %v", gotPeer, c.fromPeer)
			}
			if err := r.mem.CheckInvariants([]memsys.Addr{line0}); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestMemCtrlSerialisesPerLine(t *testing.T) {
	// Two overlapping stores from both agents to the same line: the
	// ordering point must run them one at a time; the final owner holds
	// one of the two versions and the other agent is I.
	r := newRig(t, 8, 4096, 2)
	done := 0
	r.cpu.Access(&memsys.Request{Type: memsys.Store, Addr: line0, Ver: 1, Done: func(sim.Tick) { done++ }})
	r.gpu.Access(&memsys.Request{Type: memsys.Store, Addr: line0, Ver: 2, Done: func(sim.Tick) { done++ }})
	r.e.Run()
	if done != 2 {
		t.Fatalf("completed %d stores", done)
	}
	cs, gs := r.cpu.State(line0), r.gpu.State(line0)
	if !((cs == MM && gs == I) || (cs == I && gs == MM)) {
		t.Errorf("final states cpu=%s gpu=%s, want exactly one MM", StateName(cs), StateName(gs))
	}
	winner := r.cpu
	if gs == MM {
		winner = r.gpu
	}
	if v := winner.Ver(line0); v != 1 && v != 2 {
		t.Errorf("winner version %d, want 1 or 2", v)
	}
	if err := r.mem.CheckInvariants([]memsys.Addr{line0}); err != nil {
		t.Error(err)
	}
}

func TestCheckInvariantsCatchesCorruption(t *testing.T) {
	r := newRig(t, 8, 4096, 2)
	r.do(r.cpu, memsys.Store, line0, 1)
	// Corrupt: force a second exclusive copy behind the protocol's back.
	r.gpu.L2Cache().Insert(line0, MM, true)
	err := r.mem.CheckInvariants([]memsys.Addr{line0})
	if err == nil {
		t.Fatal("invariant checker missed a double-exclusive line")
	}
	if !strings.Contains(err.Error(), "0x10000") {
		t.Errorf("report does not name the line: %v", err)
	}
}

func TestCheckInvariantsDetectsBusyController(t *testing.T) {
	r := newRig(t, 8, 4096, 2)
	r.cpu.Access(&memsys.Request{Type: memsys.Load, Addr: line0})
	// Step a little but don't drain.
	for i := 0; i < 5; i++ {
		r.e.Step()
	}
	if r.mem.Idle() {
		t.Skip("transaction already finished; timing changed")
	}
	if err := r.mem.CheckInvariants(nil); err == nil {
		t.Error("busy controller not reported")
	}
	r.e.Run()
}

func TestStoreToOverflowedPushReinstalls(t *testing.T) {
	// A store hitting a line whose overflowed push is still in flight
	// to memory must reinstall it exclusively with the new version.
	e := sim.NewEngine()
	xbar := interconnect.NewCrossbar(e, "xbar", 16, 32)
	d := dram.New(e, dram.DefaultConfig())
	mem := NewMemCtrl(e, "mem", xbar, d, func(memsys.Addr, interconnect.Port) []interconnect.Port { return nil })
	cpu := NewCtrl(e, CtrlConfig{
		Name: "cpu", L2: cache.Config{Name: "l2", SizeBytes: 4096, Ways: 2},
		L2HitLat: 12, MSHRs: 4,
	}, xbar, mem)
	gpu := NewCtrl(e, CtrlConfig{
		Name: "gpu0", L2: cache.Config{Name: "gl2", SizeBytes: memsys.LineSize, Ways: 1},
		L2HitLat: 12, MSHRs: 4,
	}, xbar, mem)
	direct := interconnect.NewLink(e, "direct", 20, 32)
	cpu.AttachDirectStore(direct, func(memsys.Addr) *Ctrl { return gpu })
	a, b := line0, line0+memsys.LineSize
	// Fill the single way, then overflow b, then store to b while its
	// writeback may still be in flight.
	cpu.Access(&memsys.Request{Type: memsys.RemoteStore, Addr: a, Ver: 1})
	cpu.Access(&memsys.Request{Type: memsys.RemoteStore, Addr: b, Ver: 2})
	done := false
	gpu.Access(&memsys.Request{Type: memsys.Store, Addr: b, Ver: 3, Done: func(sim.Tick) { done = true }})
	e.Run()
	if !done {
		t.Fatal("store did not complete")
	}
	// The GPU must now own b with version 3, wherever it lives.
	if gpu.L2Cache().Contains(b) {
		if gpu.Ver(b) != 3 {
			t.Errorf("resident version %d, want 3", gpu.Ver(b))
		}
	} else if mem.MemVer(b) != 3 {
		t.Errorf("memory version %d, want 3", mem.MemVer(b))
	}
	// Re-reading must see version 3.
	req := &memsys.Request{Type: memsys.Load, Addr: b, Done: func(sim.Tick) {}}
	gpu.Access(req)
	e.Run()
	if req.Ver != 3 {
		t.Errorf("re-read saw version %d, want 3", req.Ver)
	}
}
