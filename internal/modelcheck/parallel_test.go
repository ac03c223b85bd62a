package modelcheck

import (
	"bytes"
	"reflect"
	"sync"
	"testing"
	"unsafe"
)

// TestStateNoPadding pins the precondition of the fingerprint byte
// view: the state struct must have no padding, or unsafe bytes would
// include garbage and break canonical hashing. Every field is uint8 or
// an array/struct of uint8s, so the flat byte count must equal
// unsafe.Sizeof.
func TestStateNoPadding(t *testing.T) {
	var flat func(reflect.Type) uintptr
	flat = func(ty reflect.Type) uintptr {
		switch ty.Kind() {
		case reflect.Uint8:
			return 1
		case reflect.Array:
			return uintptr(ty.Len()) * flat(ty.Elem())
		case reflect.Struct:
			var n uintptr
			for i := 0; i < ty.NumField(); i++ {
				n += flat(ty.Field(i).Type)
			}
			return n
		default:
			t.Fatalf("state contains non-uint8 kind %v", ty.Kind())
			return 0
		}
	}
	if got, want := flat(reflect.TypeOf(state{})), unsafe.Sizeof(state{}); got != want {
		t.Fatalf("state has padding: %d flat bytes, %d with padding", got, want)
	}
}

// TestParallelDeterminism requires identical results — state counts,
// invariant counts, and byte-identical counterexamples — at every
// worker count, on both clean and violating configurations. Run under
// -race this also exercises the worker pool for data races.
//
// The small configs fit each level in one frontier block. The two-line
// bypass product (263,848 states) has a widest level of 24,932 states,
// seven blocks, so blocks are released and refilled while their level
// is still being expanded; -short skips it, `make race` runs it.
func TestParallelDeterminism(t *testing.T) {
	wide := bypassProduct
	cfgs := []Config{
		{Agents: 3, Lines: 1, DirectLines: 1, MaxStores: 2},
		{Agents: 3, Lines: 1, MaxStores: 1, MaxEvicts: 1, MaxLoads: 2, Mutation: MutSkipInvalidate},
		{Agents: 3, Lines: 1, MaxStores: 1, MaxEvicts: 1, MaxLoads: 2, Bypass: true, Mutation: MutBypassNoWBBuf},
		{Agents: 4, GPUs: 2, Lines: 2, DirectLines: 2, MaxStores: 1, MaxEvicts: 1, MaxLoads: 1, Symmetry: true},
		wide,
	}
	for _, cfg := range cfgs {
		cfg := cfg
		t.Run(cfg.String(), func(t *testing.T) {
			if testing.Short() && cfg == wide {
				t.Skip("multi-block configuration skipped in -short mode")
			}
			base, err := CheckOpts(cfg, Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 4} {
				got, err := CheckOpts(cfg, Options{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if got.States != base.States || got.Transitions != base.Transitions || got.MaxDepth != base.MaxDepth {
					t.Errorf("workers=%d: states/transitions/depth %d/%d/%d, want %d/%d/%d",
						workers, got.States, got.Transitions, got.MaxDepth, base.States, base.Transitions, base.MaxDepth)
				}
				if !reflect.DeepEqual(got.Invariants, base.Invariants) {
					t.Errorf("workers=%d: invariant counts %v, want %v", workers, got.Invariants, base.Invariants)
				}
				switch {
				case (got.Violation == nil) != (base.Violation == nil):
					t.Errorf("workers=%d: violation presence differs", workers)
				case got.Violation != nil && got.Violation.Error() != base.Violation.Error():
					t.Errorf("workers=%d: counterexample differs:\n--- workers=1 ---\n%s\n--- workers=%d ---\n%s",
						workers, base.Violation.Error(), workers, got.Violation.Error())
				}
			}
		})
	}
}

// TestSymmetryReduction: symmetry must shrink (or at worst preserve)
// the state count without changing the verdict, and the canonical map
// must be a sound orbit representative (canonical(perm(s)) ==
// canonical(s) for every group element). The in-place canonicalize
// and applyPermInto, run over scratch states that hold earlier
// results, must equal the by-value references below on every sampled
// state and group element.
func TestSymmetryReduction(t *testing.T) {
	cfg := Config{Agents: 4, GPUs: 2, Lines: 2, DirectLines: 2, MaxStores: 1, MaxEvicts: 1, MaxLoads: 1}
	plain, err := Check(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Symmetry = true
	folded, err := Check(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Violation != nil || folded.Violation != nil {
		t.Fatalf("unexpected violation (plain=%v folded=%v)", plain.Violation, folded.Violation)
	}
	if folded.States >= plain.States {
		t.Errorf("symmetry did not reduce: %d states folded vs %d plain", folded.States, plain.States)
	}
	t.Logf("symmetry: %d states vs %d plain (%.1f%%)", folded.States, plain.States,
		100*float64(folded.States)/float64(plain.States))

	// Orbit soundness on a sample of reachable states.
	group := symGroup(cfg)
	if len(group) == 0 {
		t.Fatal("expected a nontrivial symmetry group")
	}
	var scratch [2]state
	var dst state
	seen, moved := 0, 0
	frontier := []state{initial(cfg)}
	visited := map[state]bool{frontier[0]: true}
	for len(frontier) > 0 && seen < 2000 {
		s := frontier[0]
		frontier = frontier[1:]
		seen++
		c := canonical(cfg, group, s)
		in := s
		if canonicalize(group, &in, &scratch); in != c {
			t.Fatalf("canonicalize differs from canonical on state %d", seen)
		}
		if c != s {
			moved++
		}
		for gi := range group {
			p := applyPerm(cfg, &s, &group[gi])
			if applyPermInto(&s, &group[gi], &dst); dst != p {
				t.Fatalf("applyPermInto differs from applyPerm for group element %d", gi)
			}
			if pc := canonical(cfg, group, p); pc != c {
				t.Fatalf("canonical not orbit-invariant for group element %d", gi)
			}
			if canonicalize(group, &p, &scratch); p != c {
				t.Fatalf("canonicalize not orbit-invariant for group element %d", gi)
			}
		}
		successors(&cfg, &s, false, nil, func(ns *state, _, _ string) {
			if !visited[*ns] {
				visited[*ns] = true
				frontier = append(frontier, *ns)
			}
		})
	}
	if moved == 0 {
		t.Error("no sampled state left its orbit's representative: canonicalize never copied back")
	}
}

// TestMsgKeyOrdersAsMsgLess: applyPermInto sorts messages by msgKey,
// so msgKey must order every pair as msgLess does. Messages come from
// a fixed pseudo-random byte stream, each byte drawn from a few values
// so that long shared prefixes, and equal messages, occur.
func TestMsgKeyOrdersAsMsgLess(t *testing.T) {
	var x uint64
	msgs := make([]msg, 400)
	for i := range msgs {
		var b [7]uint8
		for j := range b {
			x = x*6364136223846793005 + 1442695040888963407
			b[j] = uint8(x>>61) * 37 // 0, 37, ..., 259 mod 256
		}
		msgs[i] = msg{kind: b[0], line: b[1], a: b[2], b: b[3], c: b[4], d: b[5], ord: b[6]}
	}
	key := func(m msg) uint64 { return msgKey(m.kind, m.line, m.a, m.b, m.c, m.d, m.ord) }
	for _, m := range msgs {
		for _, n := range msgs {
			if msgLess(m, n) != (key(m) < key(n)) {
				t.Fatalf("msgLess(%+v, %+v) = %v, msgKey disagrees", m, n, msgLess(m, n))
			}
		}
	}
}

// applyPerm is the by-value relabelling applyPermInto replaced, kept
// as its reference: a fresh zero state written only within cfg's
// agents and lines.
func applyPerm(cfg Config, s *state, p *perm) state {
	var ns state
	for a := 0; a < cfg.Agents; a++ {
		na := p.agents[a]
		for l := 0; l < cfg.Lines; l++ {
			nl := p.lines[l]
			ns.st[na][nl] = s.st[a][l]
			ns.dirty[na][nl] = s.dirty[a][l]
			ns.ver[na][nl] = s.ver[a][l]
			ns.wb[na][nl] = s.wb[a][l]
			ns.wbStale[na][nl] = s.wbStale[a][l]
			ns.pend[na][nl] = s.pend[a][l]
			ns.super[na][nl] = s.super[a][l]
		}
	}
	for l := 0; l < cfg.Lines; l++ {
		nl := p.lines[l]
		ns.mem[nl] = s.mem[l]
		ns.latest[nl] = s.latest[l]
		ns.busy[nl] = s.busy[l]
		ns.nq[nl] = s.nq[l]
		ns.lastPushVer[nl] = s.lastPushVer[l]
		t := s.txn[l]
		if t != (txnState{}) {
			t.from = p.agents[t.from]
		}
		ns.txn[nl] = t
		for i := 0; i < int(s.nq[l]); i++ {
			e := s.queue[l][i]
			e.from = p.agents[e.from]
			ns.queue[nl][i] = e
		}
	}
	ns.storesLeft = s.storesLeft
	ns.evictsLeft = s.evictsLeft
	ns.loadsLeft = s.loadsLeft
	ns.nackLeft = s.nackLeft
	ns.dupLeft = s.dupLeft
	ns.ordered = s.ordered
	ns.pushSeq = s.pushSeq
	ns.pushPend = s.pushPend
	ns.applied = s.applied
	ns.pushVer = s.pushVer
	for seq := 1; seq <= int(s.pushSeq); seq++ {
		ns.pushLine[seq] = p.lines[s.pushLine[seq]]
	}
	ns.nmsgs = s.nmsgs
	for i := 0; i < int(s.nmsgs); i++ {
		m := s.msgs[i]
		m.line = p.lines[m.line]
		switch m.kind {
		case kReq:
			m.b = p.agents[m.b]
		case kProbe:
			m.b = p.agents[m.b]
			m.c = p.agents[m.c]
		case kAck, kData, kUnblock, kWBDone:
			m.a = p.agents[m.a]
		}
		ns.msgs[i] = m
	}
	for i := 1; i < int(ns.nmsgs); i++ {
		for j := i; j > 0 && msgLess(ns.msgs[j], ns.msgs[j-1]); j-- {
			ns.msgs[j], ns.msgs[j-1] = ns.msgs[j-1], ns.msgs[j]
		}
	}
	return ns
}

// canonical is the by-value canonicaliser canonicalize replaced, kept
// as its reference: the smallest of s and its images under group.
func canonical(cfg Config, group []perm, s state) state {
	best := s
	for i := range group {
		if cand := applyPerm(cfg, &s, &group[i]); bytes.Compare(stateBytes(&cand), stateBytes(&best)) < 0 {
			best = cand
		}
	}
	return best
}

// TestFingerprintSanity: the fingerprint must distinguish near-equal
// states (single byte flips) and be stable for equal ones.
func TestFingerprintSanity(t *testing.T) {
	var s state
	base := fingerprint(stateBytes(&s))
	if base != fingerprint(stateBytes(&s)) {
		t.Fatal("fingerprint not deterministic")
	}
	seen := map[uint64]bool{base: true}
	for i := 0; i < stateSize; i++ {
		var m state
		stateBytes(&m)[i] = 1
		fp := fingerprint(stateBytes(&m))
		if seen[fp] {
			t.Fatalf("fingerprint collision on byte %d flip", i)
		}
		seen[fp] = true
	}
}

// TestFPTable exercises both table kinds through several doublings. A
// plain table answers fresh/seen and counts; a tracing table also
// keeps, per state, the smallest parent among those reaching it at its
// first depth, and lookup returns that parent and depth.
func TestFPTable(t *testing.T) {
	const n = 100_000 // all in shard 0 (high bits pick the shard): 2^14 slots double four times
	t.Run("plain", func(t *testing.T) {
		tab := newFPTable(false)
		for i := uint64(1); i <= n; i++ {
			if !tab.insert(i, i/2, int32(i%40)) {
				t.Fatalf("fresh insert %d reported seen", i)
			}
		}
		for i := uint64(1); i <= n; i += 997 {
			if tab.insert(i, 0, 0) {
				t.Fatalf("duplicate insert %d reported fresh", i)
			}
		}
		if !tab.insert(n+1, 0, 0) || tab.count() != n+1 {
			t.Fatalf("count = %d after one more fresh insert, want %d", tab.count(), n+1)
		}
	})
	t.Run("tracing", func(t *testing.T) {
		tab := newFPTable(true)
		for i := uint64(1); i <= n; i++ {
			if !tab.insert(i, i/2, int32(i%40)) {
				t.Fatalf("fresh insert %d reported seen", i)
			}
		}
		if tab.count() != n {
			t.Fatalf("count = %d, want %d", tab.count(), n)
		}
		for i := uint64(1); i <= n; i += 997 {
			if parent, depth, ok := tab.lookup(i); !ok || parent != i/2 || depth != int32(i%40) {
				t.Fatalf("lookup(%d) = %d, %d, %v; want %d, %d, true", i, parent, depth, ok, i/2, i%40)
			}
		}
		// Same depth: a smaller parent wins, a larger one is ignored.
		tab.insert(7, 1, 7)
		tab.insert(7, 2, 7)
		if parent, depth, _ := tab.lookup(7); parent != 1 || depth != 7 {
			t.Fatalf("same-depth min parent: got %d at depth %d, want 1 at 7", parent, depth)
		}
		// A different depth never replaces the parent, even a smaller one.
		if tab.insert(7, 0, 12) {
			t.Fatal("duplicate insert reported fresh")
		}
		if parent, depth, _ := tab.lookup(7); parent != 1 || depth != 7 {
			t.Fatalf("cross-depth insert changed the entry: parent %d depth %d", parent, depth)
		}
		if _, _, ok := tab.lookup(999_999_999); ok {
			t.Fatal("lookup of absent fp succeeded")
		}
	})
}

// TestFPTableConcurrentInserts races four goroutines over one plain
// table. Each inserts the same 120,000 distinct fingerprints from its
// own starting point, wrapping around, so every fingerprint is offered
// four times while other goroutines insert, find and grow. The
// fingerprints fall into shards 0 and 1 only, 60,000 each, so both
// shards grow three times (16K to 128K slots) under contention. Every
// fingerprint must be reported new exactly once, count must equal the
// distinct count, and afterwards every fingerprint must read as seen.
// `make race` runs it under the race detector.
func TestFPTableConcurrentInserts(t *testing.T) {
	const (
		distinct = 120_000
		workers  = 4
	)
	fps := make([]uint64, distinct)
	for i := range fps {
		// Multiplying by an odd constant is a bijection on 52 bits:
		// distinct, well-spread low bits; the high bits pick the shard.
		low := uint64(i+1) * 0x9e3779b97f4a7c15 & (1<<52 - 1)
		fps[i] = uint64(i%2)<<52 | low | 1
	}
	seen := make(map[uint64]bool, distinct)
	for _, fp := range fps {
		if seen[fp] {
			t.Fatalf("fingerprint %#x generated twice", fp)
		}
		seen[fp] = true
	}

	tab := newFPTable(false)
	defer tab.release()
	fresh := make([][]uint64, workers)
	var wg sync.WaitGroup
	for g := range fresh {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := g * distinct / workers
			for k := range fps {
				if fp := fps[(start+k)%distinct]; tab.insert(fp, 0, 0) {
					fresh[g] = append(fresh[g], fp)
				}
			}
		}()
	}
	wg.Wait()

	reported := make(map[uint64]int, distinct)
	for _, got := range fresh {
		for _, fp := range got {
			reported[fp]++
		}
	}
	for _, fp := range fps {
		if n := reported[fp]; n != 1 {
			t.Fatalf("fingerprint %#x reported new %d times, want once", fp, n)
		}
	}
	if len(reported) != distinct || tab.count() != distinct {
		t.Fatalf("%d fingerprints reported new, count %d; want %d", len(reported), tab.count(), distinct)
	}
	for _, fp := range fps {
		if tab.insert(fp, 0, 0) {
			t.Fatalf("fingerprint %#x reported new after the race", fp)
		}
	}
	for i := 0; i < 2; i++ {
		if g := tab.shards[i].ngen; g != 4 {
			t.Errorf("shard %d grew through %d arrays, want 4", i, g)
		}
	}
}

// TestConcurrentChecksShareArena runs three configurations at once, one
// goroutine each at two workers, all drawing blocks and shard arrays
// from and giving them back to the same process-wide free lists while
// the others run. Each result must equal the configuration's
// sequential run: states, transitions, depth, every invariant count
// and, for the mutation, the counterexample.
func TestConcurrentChecksShareArena(t *testing.T) {
	cfgs := []Config{
		bypassProduct,
		{Agents: 4, GPUs: 2, Lines: 2, DirectLines: 2, MaxStores: 1, MaxEvicts: 1, MaxLoads: 1, Symmetry: true},
		skipInvalidate.cfg,
	}
	render := func(res *Result) string {
		if res.Violation != nil {
			return sweepRecord(res) + "\n" + res.Violation.Error()
		}
		return sweepRecord(res)
	}
	want := make([]string, len(cfgs))
	for i, cfg := range cfgs {
		res, err := CheckOpts(cfg, Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = render(res)
	}
	got := make([]string, len(cfgs))
	var wg sync.WaitGroup
	for i, cfg := range cfgs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if res, err := CheckOpts(cfg, Options{Workers: 2}); err == nil {
				got[i] = render(res)
			} else {
				got[i] = err.Error()
			}
		}()
	}
	wg.Wait()
	for i, cfg := range cfgs {
		if got[i] != want[i] {
			t.Errorf("%s run concurrently:\n got %s\nwant %s", cfg, got[i], want[i])
		}
	}
}

// TestMutationGoldensAfterWarmSweep checks the three counterexample
// goldens again after a sweep has filled the free lists in this
// process, so no block or shard array a run gives back can leak a
// state into a later one. The warm-up is the standard sweep without
// the three configurations -short skips: 766,363 states, after which
// the lists hold 14 blocks and a table's 16K-slot shard arrays. The
// full sweep, whose largest configuration also grows shards to 32K and
// 64K slots, runs in TestCheckReusesArena and TestStandardSweepClean.
func TestMutationGoldensAfterWarmSweep(t *testing.T) {
	for _, cfg := range StandardSweep() {
		if largeSweepConfig(cfg) {
			continue
		}
		res, err := CheckOpts(cfg, Options{Workers: 2})
		if err != nil {
			t.Fatalf("warm-up Check(%s): %v", cfg, err)
		}
		if res.Violation != nil {
			t.Fatalf("warm-up Check(%s): %s", cfg, res.Violation.Message)
		}
	}
	for _, m := range []mutationCase{bypassNoWBBuf, skipInvalidate, pushInstallS} {
		mustViolate(t, m.cfg, m.golden)
	}
}
