package coherence

import (
	"fmt"
	"strings"
	"testing"
)

// probeCase renders one probe reaction compactly: the data source and
// the grant it carries (+own when writeback duty moves), the ack flags
// (H had data, P present, D dirty; - none), the copy's next state, and
// whether the writeback-buffer entry goes stale.
func probeCase(r ProbeReply) string {
	src := "-"
	switch {
	case r.FromWB:
		src = "wb:" + StateName(r.Grant)
	case r.HadData:
		src = "line:" + StateName(r.Grant)
	}
	if r.Owned {
		src += "+own"
	}
	ack := ""
	if r.HadData {
		ack += "H"
	}
	if r.Present {
		ack += "P"
	}
	if r.Dirty {
		ack += "D"
	}
	if ack == "" {
		ack = "-"
	}
	s := fmt.Sprintf("%s ack=%s next=%s", src, ack, StateName(r.Next))
	if r.StaleWB {
		s += " stale"
	}
	return s
}

// wantProbe pins every (state, dirty) × writeback buffer × live-copy age
// × probe kind reaction. Columns: PrbShare | PrbInv | PrbSnoop. A live
// buffer answers unless the agent holds an owned copy newer than the
// buffered writeback; a stale buffer is the same as none.
const wantProbe = `I  clean none  newer | - ack=- next=I | - ack=- next=I | - ack=- next=I
I  clean none  older | - ack=- next=I | - ack=- next=I | - ack=- next=I
I  clean live  newer | wb:S ack=HD next=I | wb:MM+own ack=HD next=I stale | wb:I ack=HD next=I
I  clean live  older | wb:S ack=HD next=I | wb:MM+own ack=HD next=I stale | wb:I ack=HD next=I
I  clean stale newer | - ack=- next=I | - ack=- next=I | - ack=- next=I
I  clean stale older | - ack=- next=I | - ack=- next=I | - ack=- next=I
S  clean none  newer | - ack=P next=S | - ack=P next=I | - ack=P next=S
S  clean none  older | - ack=P next=S | - ack=P next=I | - ack=P next=S
S  clean live  newer | wb:S ack=HD next=S | wb:MM+own ack=HD next=S stale | wb:I ack=HD next=S
S  clean live  older | wb:S ack=HD next=S | wb:MM+own ack=HD next=S stale | wb:I ack=HD next=S
S  clean stale newer | - ack=P next=S | - ack=P next=I | - ack=P next=S
S  clean stale older | - ack=P next=S | - ack=P next=I | - ack=P next=S
O  clean none  newer | line:S ack=H next=O | line:MM ack=H next=I | line:I ack=H next=O
O  clean none  older | line:S ack=H next=O | line:MM ack=H next=I | line:I ack=H next=O
O  clean live  newer | line:S ack=H next=O | line:MM ack=H next=I | line:I ack=H next=O
O  clean live  older | wb:S ack=HD next=O | wb:MM+own ack=HD next=O stale | wb:I ack=HD next=O
O  clean stale newer | line:S ack=H next=O | line:MM ack=H next=I | line:I ack=H next=O
O  clean stale older | line:S ack=H next=O | line:MM ack=H next=I | line:I ack=H next=O
O  dirty none  newer | line:S ack=HD next=O | line:MM+own ack=HD next=I | line:I ack=HD next=O
O  dirty none  older | line:S ack=HD next=O | line:MM+own ack=HD next=I | line:I ack=HD next=O
O  dirty live  newer | line:S ack=HD next=O | line:MM+own ack=HD next=I | line:I ack=HD next=O
O  dirty live  older | wb:S ack=HD next=O | wb:MM+own ack=HD next=O stale | wb:I ack=HD next=O
O  dirty stale newer | line:S ack=HD next=O | line:MM+own ack=HD next=I | line:I ack=HD next=O
O  dirty stale older | line:S ack=HD next=O | line:MM+own ack=HD next=I | line:I ack=HD next=O
M  clean none  newer | line:S ack=H next=S | line:MM ack=H next=I | line:I ack=H next=M
M  clean none  older | line:S ack=H next=S | line:MM ack=H next=I | line:I ack=H next=M
M  clean live  newer | line:S ack=H next=S | line:MM ack=H next=I | line:I ack=H next=M
M  clean live  older | wb:S ack=HD next=M | wb:MM+own ack=HD next=M stale | wb:I ack=HD next=M
M  clean stale newer | line:S ack=H next=S | line:MM ack=H next=I | line:I ack=H next=M
M  clean stale older | line:S ack=H next=S | line:MM ack=H next=I | line:I ack=H next=M
M  dirty none  newer | line:S ack=H next=S | line:MM+own ack=HD next=I | line:I ack=HD next=M
M  dirty none  older | line:S ack=H next=S | line:MM+own ack=HD next=I | line:I ack=HD next=M
M  dirty live  newer | line:S ack=H next=S | line:MM+own ack=HD next=I | line:I ack=HD next=M
M  dirty live  older | wb:S ack=HD next=M | wb:MM+own ack=HD next=M stale | wb:I ack=HD next=M
M  dirty stale newer | line:S ack=H next=S | line:MM+own ack=HD next=I | line:I ack=HD next=M
M  dirty stale older | line:S ack=H next=S | line:MM+own ack=HD next=I | line:I ack=HD next=M
MM dirty none  newer | line:S ack=HD next=O | line:MM+own ack=HD next=I | line:I ack=HD next=MM
MM dirty none  older | line:S ack=HD next=O | line:MM+own ack=HD next=I | line:I ack=HD next=MM
MM dirty live  newer | line:S ack=HD next=O | line:MM+own ack=HD next=I | line:I ack=HD next=MM
MM dirty live  older | wb:S ack=HD next=MM | wb:MM+own ack=HD next=MM stale | wb:I ack=HD next=MM
MM dirty stale newer | line:S ack=HD next=O | line:MM+own ack=HD next=I | line:I ack=HD next=MM
MM dirty stale older | line:S ack=HD next=O | line:MM+own ack=HD next=I | line:I ack=HD next=MM
`

// TestAnswerProbeEnumeration walks every state × probe kind × writeback
// buffer {absent, live, stale} × live copy {newer, older} (plus the
// dirty bit where a state can carry either) and pins the data source,
// ack flags, grant, next state and buffer staleness of each.
func TestAnswerProbeEnumeration(t *testing.T) {
	type sd struct {
		st    State
		dirty bool
	}
	var b strings.Builder
	for _, c := range []sd{{I, false}, {S, false}, {O, false}, {O, true}, {M, false}, {M, true}, {MM, true}} {
		for _, wb := range []WBBuf{WBNone, WBLive, WBStale} {
			for _, older := range []bool{false, true} {
				fmt.Fprintf(&b, "%-2s %s %-5s %s", StateName(c.st),
					map[bool]string{false: "clean", true: "dirty"}[c.dirty],
					[]string{"none", "live", "stale"}[wb],
					map[bool]string{false: "newer", true: "older"}[older])
				for _, k := range []ProbeKind{PrbShare, PrbInv, PrbSnoop} {
					r := AnswerProbe(ProbeCtx{St: c.st, Dirty: c.dirty, WB: wb, LiveOlder: older}, k)
					if !r.FromWB && r.Ev != ProbeEvent(k) {
						t.Errorf("%s %v: consulted %s, want %s", StateName(c.st), k, EventName(r.Ev), EventName(ProbeEvent(k)))
					}
					b.WriteString(" | " + probeCase(r))
				}
				b.WriteByte('\n')
			}
		}
	}
	if got := b.String(); got != wantProbe {
		t.Errorf("probe reactions changed:\n--- got\n%s--- want\n%s", got, wantProbe)
	}
}

// txnStep is one event delivered to a TxnCore and the effects it must
// return.
type txnStep struct {
	ev   string // start, ack (clean), present, owner, dram, unblock
	want TxnEffect
}

// TestTxnCoreWalk walks the ordering point's transaction through every
// request type with 0, 1 and 2 probe targets. Zero targets is the
// standalone / region-filtered path the model checker never reaches
// (it always probes every other agent).
func TestTxnCoreWalk(t *testing.T) {
	cases := []struct {
		name    string
		typ     ReqType
		targets int
		steps   []txnStep
		grant   State // MemGrant at the end (for data-answering walks)
	}{
		{"GETS/0", GETS, 0, []txnStep{{"start", TxDramRead}, {"dram", TxMemData}, {"unblock", TxFinish}}, M},
		{"GETS/1 owner", GETS, 1, []txnStep{{"start", TxDramRead | TxProbe}, {"owner", TxOwnerData}, {"unblock", TxFinish}}, S},
		{"GETS/1 clean", GETS, 1, []txnStep{{"start", TxDramRead | TxProbe}, {"ack", 0}, {"dram", TxMemData}, {"unblock", TxFinish}}, M},
		{"GETS/2 sharer", GETS, 2, []txnStep{{"start", TxDramRead | TxProbe}, {"dram", 0}, {"present", 0}, {"ack", TxMemData}, {"unblock", TxFinish}}, S},
		{"GETS/2 unblock first", GETS, 2, []txnStep{{"start", TxDramRead | TxProbe}, {"owner", 0}, {"unblock", 0}, {"ack", TxOwnerData | TxFinish}}, S},
		{"GETX/0", GETX, 0, []txnStep{{"start", TxGrant}, {"unblock", TxFinish}}, MM},
		{"GETX/1 sharer", GETX, 1, []txnStep{{"start", TxProbe}, {"present", TxGrant}, {"unblock", TxFinish}}, MM},
		{"GETX/2 owner", GETX, 2, []txnStep{{"start", TxProbe}, {"owner", 0}, {"ack", TxOwnerData}, {"unblock", TxFinish}}, MM},
		{"RemoteLoad/0", RemoteLoad, 0, []txnStep{{"start", TxDramRead}, {"dram", TxMemData}, {"unblock", TxFinish}}, I},
		{"RemoteLoad/1 owner", RemoteLoad, 1, []txnStep{{"start", TxDramRead | TxProbe}, {"owner", TxOwnerData}, {"unblock", TxFinish}}, I},
		{"RemoteLoad/2 clean", RemoteLoad, 2, []txnStep{{"start", TxDramRead | TxProbe}, {"ack", 0}, {"ack", 0}, {"dram", TxMemData}, {"unblock", TxFinish}}, I},
		{"WB/0", WB, 0, []txnStep{{"start", TxDramWrite}, {"dram", TxWBDone | TxFinish}}, I},
		{"WB/1", WB, 1, []txnStep{{"start", TxDramWrite}, {"dram", TxWBDone | TxFinish}}, I},
		{"WB/2", WB, 2, []txnStep{{"start", TxDramWrite}, {"dram", TxWBDone | TxFinish}}, I},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var tx TxnCore
			for i, st := range tc.steps {
				var got TxnEffect
				switch st.ev {
				case "start":
					got = tx.Start(tc.typ, tc.targets)
					wantAcks := uint8(tc.targets)
					if tc.typ == WB {
						wantAcks = 0
					}
					if tx.AcksWanted != wantAcks {
						t.Fatalf("AcksWanted = %d, want %d", tx.AcksWanted, wantAcks)
					}
				case "ack":
					got = tx.Ack(false, false)
				case "present":
					got = tx.Ack(false, true)
				case "owner":
					got = tx.Ack(true, false)
				case "dram":
					if !tx.DramOutstanding() {
						t.Fatalf("step %d: DRAM completion with no access outstanding (flags %#x)", i, tx.Flags)
					}
					got = tx.DramComplete()
				case "unblock":
					got = tx.Unblock()
				}
				if got != st.want {
					t.Fatalf("step %d (%s): effects %#x, want %#x", i, st.ev, got, st.want)
				}
			}
			if tc.typ != WB {
				if g := tx.MemGrant(); g != tc.grant {
					t.Errorf("MemGrant = %s, want %s", StateName(g), StateName(tc.grant))
				}
			}
		})
	}
}

// TestTxnCoreOwnerDiscardsRead checks an owner's transfer discards the
// speculative read: nothing waits on DRAM any more (the checker offers
// no completion step), and a late completion sends nothing.
func TestTxnCoreOwnerDiscardsRead(t *testing.T) {
	var tx TxnCore
	tx.Start(GETS, 1)
	if !tx.DramOutstanding() {
		t.Fatal("speculative read not outstanding after start")
	}
	tx.Ack(true, false)
	if tx.DramOutstanding() {
		t.Fatal("speculative read still outstanding after an owner supplied")
	}
	if eff := tx.DramComplete(); eff != 0 {
		t.Fatalf("late DRAM completion returned effects %#x", eff)
	}
}

// TestApplyFill pins the fill reactions: supersede and bypass take
// precedence over the install, installs follow the table from I and
// (upgrade path) S and O, and the data's writeback duty sets dirty.
func TestApplyFill(t *testing.T) {
	cases := []struct {
		cur, grant        State
		owned, super, byp bool
		want              FillOutcome
	}{
		{I, S, false, false, false, FillOutcome{Action: FillInstall, Grant: S, OK: true, Ev: EvFillS, Next: S}},
		{I, M, false, false, false, FillOutcome{Action: FillInstall, Grant: M, OK: true, Ev: EvFillM, Next: M}},
		{I, MM, true, false, false, FillOutcome{Action: FillInstall, Grant: MM, OK: true, Ev: EvFillMM, Next: MM, Dirty: true}},
		{S, MM, false, false, false, FillOutcome{Action: FillInstall, Grant: MM, OK: true, Ev: EvFillMM, Next: MM}},
		{O, MM, true, false, false, FillOutcome{Action: FillInstall, Grant: MM, OK: true, Ev: EvFillMM, Next: MM, Dirty: true}},
		{M, S, false, false, false, FillOutcome{Action: FillInstall, Grant: S, OK: false, Ev: EvFillS}},
		{I, MM, false, true, true, FillOutcome{Action: FillSuperseded, Grant: MM, OK: true}},
		{I, MM, false, false, true, FillOutcome{Action: FillBypass, Grant: MM, OK: true}},
	}
	for _, c := range cases {
		if got := ApplyFill(c.cur, c.grant, c.owned, c.super, c.byp); got != c.want {
			t.Errorf("ApplyFill(%s, %s, owned=%v, superseded=%v, bypass=%v) = %+v, want %+v",
				StateName(c.cur), StateName(c.grant), c.owned, c.super, c.byp, got, c.want)
		}
	}
}

// TestStoreAfterFill pins how a waiting store completes: it commits on
// write permission (M upgrades silently to MM), writes through only on
// a bypassed exclusive fill, and otherwise replays.
func TestStoreAfterFill(t *testing.T) {
	install := ApplyFill(I, MM, false, false, false)
	bypass := ApplyFill(I, MM, false, false, true)
	bypassS := ApplyFill(I, S, false, false, true)
	cases := []struct {
		st       State
		resident bool
		f        FillOutcome
		act      StoreAction
		next     State
	}{
		{MM, true, install, StoreCommit, MM},
		{M, true, install, StoreCommit, MM},
		{S, true, install, StoreReplay, S},
		{I, false, install, StoreReplay, I},
		{I, false, bypass, StoreWriteThrough, I},
		{I, false, bypassS, StoreReplay, I},
	}
	for _, c := range cases {
		act, next := StoreAfterFill(c.st, c.resident, c.f)
		if act != c.act || next != c.next {
			t.Errorf("StoreAfterFill(%s, resident=%v, %+v) = %d, %s; want %d, %s",
				StateName(c.st), c.resident, c.f, act, StateName(next), c.act, StateName(c.next))
		}
	}
}

// TestInstallPush pins the push install (MM and dirty; M and clean plus
// a write-through under the ablation), fill supersede, and the
// resilient receiver's duplicate suppression.
func TestInstallPush(t *testing.T) {
	for _, cur := range []State{I, M, MM} {
		r := InstallPush(cur, false, false)
		if !r.OK || r.Ev != EvPushInstall || r.Next != MM || !r.Dirty || r.Supersede || r.WriteThrough {
			t.Errorf("InstallPush(%s) = %+v", StateName(cur), r)
		}
	}
	if r := InstallPush(I, true, true); !r.OK || r.Ev != EvPushInstallWT || r.Next != M || r.Dirty || !r.Supersede || !r.WriteThrough {
		t.Errorf("InstallPush(I, pending, write-through) = %+v", r)
	}
	for _, c := range []struct {
		applied      bool
		ver, lastVer uint64
		stale        bool
	}{
		{false, 3, 2, false}, {false, 3, 3, false}, {false, 2, 3, true}, {true, 4, 3, true},
	} {
		if got := PushStale(c.applied, c.ver, c.lastVer); got != c.stale {
			t.Errorf("PushStale(%v, %d, %d) = %v, want %v", c.applied, c.ver, c.lastVer, got, c.stale)
		}
	}
	if !WBCommitClears(true, 5, 5) || WBCommitClears(true, 6, 5) || WBCommitClears(false, 0, 0) {
		t.Error("WBCommitClears does not version-match the buffered writeback")
	}
}
