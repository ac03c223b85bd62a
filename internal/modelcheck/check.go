package modelcheck

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"

	"dstore/internal/coherence"
	"dstore/internal/freelist"
)

// lineQuiescent reports whether nothing is in flight for line l.
func lineQuiescent(cfg *Config, s *state, l int) bool {
	if s.busy[l] != 0 || s.nq[l] != 0 {
		return false
	}
	for a := 0; a < cfg.Agents; a++ {
		if s.pend[a][l] != pendNone || s.wb[a][l] != 0 {
			return false
		}
	}
	for i := 0; i < int(s.nmsgs); i++ {
		if int(s.msgs[i].line) == l {
			return false
		}
	}
	for seq := 1; seq <= maxSeqs; seq++ {
		if s.pushPend&(1<<seq) != 0 && int(s.pushLine[seq]) == l {
			return false
		}
	}
	return true
}

func anyDramPending(cfg *Config, s *state) bool {
	for l := 0; l < cfg.Lines; l++ {
		if s.busy[l] != 0 && s.txn[l].DramOutstanding() {
			return true
		}
	}
	return false
}

func workOutstanding(cfg *Config, s *state) bool {
	if s.pushPend != 0 {
		return true
	}
	for l := 0; l < cfg.Lines; l++ {
		if s.busy[l] != 0 || s.nq[l] != 0 {
			return true
		}
		for a := 0; a < cfg.Agents; a++ {
			if s.pend[a][l] != pendNone {
				return true
			}
		}
	}
	return false
}

// Result summarises one exhaustive exploration.
type Result struct {
	Config      Config
	Workers     int // worker count the run used
	States      int // distinct states reached
	Transitions int // transitions explored
	MaxDepth    int // longest shortest-path from the initial state
	// Invariants counts, per entry of coherence.Invariants (plus the
	// checker's own deadlock and mm-install checks), how many times the
	// check was evaluated — the per-invariant work profile of the run.
	Invariants []InvariantCount
	Violation  *Violation
}

// InvariantCount is the evaluation count of one invariant.
type InvariantCount struct {
	Name   string `json:"name"`
	Checks uint64 `json:"checks"`
}

// Violation is a failed invariant with its minimal counterexample: the
// shortest action sequence from the initial state (BFS order
// guarantees minimality) and a rendering of the violating state.
type Violation struct {
	Message string
	Trace   []string
	Final   string
}

// Error formats the violation as a multi-line report.
func (v *Violation) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "invariant violated: %s\n", v.Message)
	fmt.Fprintf(&b, "counterexample (%d steps):\n", len(v.Trace))
	for i, step := range v.Trace {
		fmt.Fprintf(&b, "  %2d. %s\n", i+1, step)
	}
	b.WriteString("violating state:\n")
	b.WriteString(v.Final)
	return b.String()
}

// CoveragePair is one fired protocol-table row.
type CoveragePair struct {
	State coherence.State
	Event coherence.Event
}

// Options tunes an exploration.
type Options struct {
	// Workers is the BFS worker count; 0 means GOMAXPROCS. Results —
	// state counts, invariant counts and counterexample traces — are
	// identical at any worker count.
	Workers int
	// Coverage, when non-nil, collects every (state, event) table row
	// the model fires. Recording costs a mutex per transition, so it is
	// reserved for the reachability dump, not routine checking.
	Coverage map[CoveragePair]bool
}

// checker is the per-exploration context shared by workers: the
// immutable configuration and the two concurrent structures, the
// visited set and the frontier block pool.
type checker struct {
	cfg   Config
	group []perm
	table *fpTable
	pool  blockPool
	pushE coherence.Event
}

// Extra checker-owned invariant slots appended after coherence.Invariants.
const (
	extraDeadlock = iota
	extraMMInstall
	numExtra
)

// Frontier layout. A BFS level is a list of blocks of blockSize states
// (1.3 MB each); workers claim chunk states at a time.
const (
	blockSize      = 4096
	chunk          = 64
	chunksPerBlock = blockSize / chunk
)

// block is a run of frontier states and their fingerprints, filled by
// one worker. Slots past n hold former states or zeroes, so every slot
// keeps the dead-message-slots-zero invariant copyLive relies on.
//
// While its level is expanded, size is the state count snapshotted at
// the level barrier and left counts the chunks not yet expanded; the
// worker that expands the last chunk releases the block at once, so
// another worker may refill it (resetting n) while the level's chunk
// loop still bounds its claims on this block by size.
type block struct {
	n    int
	size int
	left atomic.Int32
	fp   [blockSize]uint64
	st   [blockSize]state
}

// blockPool is a run's frontier storage. Each worker fills its own
// block and hands it to next, the level being built, once it is full;
// a block of the level being expanded returns to free as soon as its
// last chunk is expanded, so about one level is resident, not two. The
// mutex is taken once per block, not per state. The pool draws a block
// from blockFree only when free is empty, and giveBack returns every
// block to blockFree when the run ends, so the next run, in this or
// another goroutine, starts from them.
type blockPool struct {
	mu   sync.Mutex
	next []*block
	free []*block
}

// arenaBytes bounds each of the checker's process-wide free lists,
// blockFree, fpFree and fpTables; what a Put would hold past it is left
// to the collector. It is sized from the standard sweep's peak at two workers:
// its 1.87M-state heap config holds 48 blocks (62 MB) at once and
// leaves 64 shard arrays each of 16K, 32K and 64K slots (56 MiB).
const arenaBytes = 64 << 20

// blockFree holds frontier blocks between runs. Put clears a block, so
// a reused one keeps the dead-message-slots-zero invariant trivially;
// while a run lasts, its blocks cycle through blockPool.free uncleared.
var blockFree = freelist.New[block](arenaBytes)

// swap hands full (if non-nil) to the next level and returns an empty
// block, recycled when one is free.
func (p *blockPool) swap(full *block) *block {
	p.mu.Lock()
	defer p.mu.Unlock()
	if full != nil {
		p.next = append(p.next, full)
	}
	n := len(p.free)
	if n == 0 {
		return &blockFree.Get(1)[0]
	}
	b := p.free[n-1]
	p.free = p.free[:n-1]
	b.n = 0
	return b
}

// release returns an expanded block to the free list.
func (p *blockPool) release(b *block) {
	p.mu.Lock()
	p.free = append(p.free, b)
	p.mu.Unlock()
}

// giveBack ends a run: every block it still holds goes to blockFree —
// the free list, the level being built, each worker's partly filled
// block, and frontier, the unexpanded level a violation stops at.
func (p *blockPool) giveBack(frontier []*block, ws []*worker) {
	for _, w := range ws {
		if w.cur != nil {
			frontier = append(frontier, w.cur)
			w.cur = nil
		}
	}
	for _, bs := range [][]*block{p.free, p.next, frontier} {
		for _, b := range bs {
			blockFree.Put(unsafe.Slice(b, 1))
		}
	}
	p.free, p.next = nil, nil
}

// worker is one BFS worker's private scratch: the frontier block it is
// filling, its candidate violations, statistics, its recorder and a
// preallocated LineView so invariant checking allocates nothing per
// state.
type worker struct {
	view        coherence.LineView
	counts      []uint64
	rec         recorder
	cur         *block // nil until the worker keeps its first state of a level
	cands       []cand
	transitions int
	scratch     state    // successor buffer, reused across every expansion
	canon       [2]state // canonicalize's candidate buffers
}

// keep appends a newly visited state to the worker's current block.
func (w *worker) keep(p *blockPool, s *state, fp uint64) {
	if w.cur == nil || w.cur.n == blockSize {
		w.cur = p.swap(w.cur)
	}
	b := w.cur
	copyLive(&b.st[b.n], s)
	b.fp[b.n] = fp
	b.n++
}

// cand is one discovered violation, kept until the level barrier and
// then deterministically minimised. It deliberately carries nothing
// about HOW the violation was discovered: which worker found it and
// from which parent are races, so the trace is reconstructed from a
// tracing table's parent chain, whose per-level min-fingerprint
// tie-break has settled deterministically by the time exploration
// stops.
type cand struct {
	depth int32
	msg   string
	st    state // the violating state
}

// candLess orders candidates: shallowest first, then by the violating
// state's byte encoding, then message — a total order independent of
// discovery order, so the reported counterexample is byte-identical
// at any worker count.
func candLess(a, b *cand) bool {
	if a.depth != b.depth {
		return a.depth < b.depth
	}
	if c := bytes.Compare(stateBytes(&a.st), stateBytes(&b.st)); c != 0 {
		return c < 0
	}
	return a.msg < b.msg
}

// checkState evaluates the invariant set (plus
// the deadlock heuristic) on one state, returning a violation message
// or "". Each unique state is checked exactly once, when first
// inserted into the visited set.
func (c *checker) checkState(w *worker, s *state) string {
	v := &w.view
	for l := 0; l < c.cfg.Lines; l++ {
		v.Line = lineLabels[l]
		for a := 0; a < c.cfg.Agents; a++ {
			v.States[a] = coherence.State(s.st[a][l])
			v.Vers[a] = uint64(s.ver[a][l])
		}
		v.MemVer = uint64(s.mem[l])
		v.Latest = uint64(s.latest[l])
		v.Quiescent = lineQuiescent(&c.cfg, s, l)
		if msg := coherence.CheckLineView(v, w.counts); msg != "" {
			return msg
		}
	}
	w.counts[len(coherence.Invariants)+extraDeadlock]++
	if s.nmsgs == 0 && !anyDramPending(&c.cfg, s) && workOutstanding(&c.cfg, s) {
		return "deadlock: work outstanding but no step enabled"
	}
	return ""
}

var lineLabels = [maxLines]string{"0", "1"}

func newChecker(cfg Config, table *fpTable) *checker {
	return &checker{
		cfg:   cfg,
		group: symGroup(cfg),
		table: table,
		pushE: coherence.PushEvent(cfg.WriteThroughPush),
	}
}

// newWorkers builds n workers whose recorders count mm-install checks
// (every push install the model fires) and feed the optional coverage
// set under one shared mutex.
func (c *checker) newWorkers(n int, coverage map[CoveragePair]bool) []*worker {
	covMu := new(sync.Mutex)
	ws := make([]*worker, n)
	for i := range ws {
		ws[i] = c.newWorker(coverage, covMu)
	}
	return ws
}

func (c *checker) newWorker(coverage map[CoveragePair]bool, covMu *sync.Mutex) *worker {
	names := make([]string, c.cfg.Agents)
	for a := range names {
		names[a] = fmt.Sprintf("agent%d", a)
	}
	w := &worker{
		view: coherence.LineView{
			N:           c.cfg.Agents,
			States:      make([]coherence.State, c.cfg.Agents),
			Vers:        make([]uint64, c.cfg.Agents),
			Names:       names,
			HasVersions: true,
		},
		counts: make([]uint64, len(coherence.Invariants)+numExtra),
	}
	w.rec = func(agent, line int, st coherence.State, ev coherence.Event, next coherence.State) {
		if ev == c.pushE {
			w.counts[len(coherence.Invariants)+extraMMInstall]++
		}
		if coverage != nil {
			covMu.Lock()
			coverage[CoveragePair{State: st, Event: ev}] = true
			covMu.Unlock()
		}
	}
	return w
}

// Check explores with default options (all cores).
func Check(cfg Config) (*Result, error) { return CheckOpts(cfg, Options{}) }

// CheckOpts exhaustively explores every reachable state of the
// configured model with a level-synchronous parallel BFS over a
// hash-compacted visited set, stopping at the first BFS level
// containing an invariant violation. A nil Result.Violation means the
// protocol is safe within the configured bounds.
//
// Determinism: the visited set is keyed by state fingerprints and
// violations are minimised under candLess after each level barrier, so
// States, Invariants and the chosen violation are independent of
// worker count and scheduling. The counterexample comes from a second
// exploration over a tracing table, whose parent pointers tie-break to
// the smallest fingerprint within a level.
func CheckOpts(cfg Config, opt Options) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	c := newChecker(cfg, newFPTable(false))
	ws := c.newWorkers(workers, opt.Coverage)
	best, maxDepth := c.explore(ws)
	res := &Result{Config: cfg, Workers: workers, States: c.table.count(), MaxDepth: maxDepth}
	c.table.release()
	c.mergeCounts(res, ws)
	if best != nil {
		res.Violation = buildViolation(cfg, workers, best)
	}
	return res, nil
}

// explore runs the BFS from the initial state until a level yields a
// violation or the frontier empties. It returns the minimal violation
// candidate (nil if none) and the depth of the deepest level reached.
// Workers claim the level chunk by chunk, bounded by each block's size
// (see block). Every block goes back to blockFree before it returns.
func (c *checker) explore(ws []*worker) (best *cand, maxDepth int) {
	init := initial(c.cfg)
	canonicalize(c.group, &init, &ws[0].canon)
	initFP := fpState(&init)
	c.table.insert(initFP, initFP, 0)
	if msg := c.checkState(ws[0], &init); msg != "" {
		return &cand{msg: msg, st: init}, 0
	}

	ws[0].keep(&c.pool, &init, initFP)
	frontier := c.advance(nil, ws)
	for depth := int32(0); len(frontier) > 0; depth++ {
		var cursor atomic.Int64
		var wg sync.WaitGroup
		for _, w := range ws {
			wg.Add(1)
			go func(w *worker) {
				defer wg.Done()
				for {
					i := int(cursor.Add(1)) - 1
					if i/chunksPerBlock >= len(frontier) {
						return
					}
					b, lo := frontier[i/chunksPerBlock], i%chunksPerBlock*chunk
					if lo >= b.size {
						continue
					}
					for j := lo; j < min(lo+chunk, b.size); j++ {
						c.expand(w, &b.st[j], b.fp[j], depth)
					}
					if b.left.Add(-1) == 0 {
						c.pool.release(b)
					}
				}
			}(w)
		}
		wg.Wait()

		for _, w := range ws {
			for i := range w.cands {
				if best == nil || candLess(&w.cands[i], best) {
					cp := w.cands[i]
					best = &cp
				}
			}
			w.cands = w.cands[:0]
		}
		frontier = c.advance(frontier, ws)
		if best != nil {
			break
		}
		if len(frontier) > 0 {
			maxDepth = int(depth) + 1
		}
	}
	c.pool.giveBack(frontier, ws)
	return best, maxDepth
}

// advance ends a BFS level: the blocks built during it, full ones plus
// each worker's partly filled one, become the new frontier, each with
// its size snapshotted and its chunks counted. The expanded level's
// blocks are already back on the free list.
func (c *checker) advance(frontier []*block, ws []*worker) []*block {
	p := &c.pool
	frontier, p.next = p.next, frontier[:0]
	for _, w := range ws {
		if w.cur != nil {
			frontier = append(frontier, w.cur)
			w.cur = nil
		}
	}
	for _, b := range frontier {
		b.size = b.n
		b.left.Store(int32((b.n + chunk - 1) / chunk))
	}
	return frontier
}

// expand visits every successor of frontier state s (fingerprint pfp,
// at depth): canonicalise, insert into the visited set, check and keep
// the new ones, and record candidate violations.
func (c *checker) expand(w *worker, s *state, pfp uint64, depth int32) {
	emitted := 0
	successorsInto(&c.cfg, s, &w.scratch, false, w.rec, func(ns *state, _ string, viol string) {
		emitted++
		w.transitions++
		if len(c.group) > 0 {
			canonicalize(c.group, ns, &w.canon)
		}
		fp := fpState(ns)
		if c.table.insert(fp, pfp, depth+1) {
			if viol == "" {
				viol = c.checkState(w, ns)
			}
			w.keep(&c.pool, ns, fp)
		}
		if viol != "" {
			w.cands = append(w.cands, cand{depth: depth + 1, msg: viol, st: *ns})
		}
	})
	if emitted == 0 && workOutstanding(&c.cfg, s) {
		// Exact deadlock: work outstanding, no enabled step at all (the
		// in-state heuristic can miss states whose remaining messages
		// are all undeliverable).
		w.cands = append(w.cands, cand{depth: depth, msg: "deadlock: work outstanding but no step enabled", st: *s})
	}
}

func (c *checker) mergeCounts(res *Result, ws []*worker) {
	for _, w := range ws {
		res.Transitions += w.transitions
	}
	names := make([]string, 0, len(coherence.Invariants)+numExtra)
	for i := range coherence.Invariants {
		names = append(names, coherence.Invariants[i].Name)
	}
	names = append(names, "deadlock", "mm-install")
	for i, name := range names {
		var n uint64
		for _, w := range ws {
			n += w.counts[i]
		}
		res.Invariants = append(res.Invariants, InvariantCount{Name: name, Checks: n})
	}
}

// buildViolation reconstructs the minimal counterexample for v, the
// candidate a plain exploration chose: explore the same levels again
// over a tracing table, walk its fingerprint parent chain back to the
// root, forward-replay successors matching each fingerprint to recover
// the action labels, then label the final violating step by exact
// state match.
func buildViolation(cfg Config, workers int, v *cand) *Violation {
	// The re-run inserts the same states from the same parents and
	// stops after the same level, so every state on v's path is in
	// the table, and its per-level min-parent tie-break is the
	// deterministic path source (the discovering worker's own parent
	// is a race).
	c := newChecker(cfg, newFPTable(true))
	c.explore(c.newWorkers(workers, nil))
	var chain []uint64
	for fp := fpState(&v.st); ; {
		chain = append(chain, fp)
		parent, depth, ok := c.table.lookup(fp)
		if !ok || depth == 0 {
			break
		}
		fp = parent
	}
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}

	var trace []string
	var scratch [2]state
	cur := initial(cfg)
	canonicalize(c.group, &cur, &scratch)
	for _, fp := range chain[1:] {
		found := false
		successors(&c.cfg, &cur, true, nil, func(ns *state, label, _ string) {
			if found {
				return
			}
			canonicalize(c.group, ns, &scratch)
			if fpState(ns) == fp {
				cur, found = *ns, true
				trace = append(trace, label)
			}
		})
		if !found {
			// Fingerprint collision broke the chain (probability ~1e-7
			// per run); report what we have.
			trace = append(trace, "<trace lost to fingerprint collision>")
			break
		}
	}
	return &Violation{Message: v.msg, Trace: trace, Final: dump(c.cfg, &v.st)}
}

// dump renders a state for counterexample reports.
func dump(cfg Config, s *state) string {
	var b strings.Builder
	for l := 0; l < cfg.Lines; l++ {
		fmt.Fprintf(&b, "  line %d: mem=v%d newest=v%d", l, s.mem[l], s.latest[l])
		if s.busy[l] != 0 {
			t := s.txn[l]
			fmt.Fprintf(&b, " [txn %s from agent%d acks %d/%d flags %#x, %d queued]",
				t.Typ, t.from, t.AcksRecv, t.AcksWanted, t.Flags, s.nq[l])
		}
		b.WriteByte('\n')
		for a := 0; a < cfg.Agents; a++ {
			fmt.Fprintf(&b, "    agent%d: %s v%d", a, coherence.StateName(coherence.State(s.st[a][l])), s.ver[a][l])
			if s.dirty[a][l] != 0 {
				b.WriteString(" dirty")
			}
			if s.wb[a][l] != 0 {
				fmt.Fprintf(&b, " wb=v%d", s.wb[a][l])
			}
			if s.pend[a][l] != pendNone {
				fmt.Fprintf(&b, " pend=%d", s.pend[a][l])
			}
			b.WriteByte('\n')
		}
	}
	fmt.Fprintf(&b, "  storesLeft=%d", s.storesLeft)
	if s.pushPend != 0 {
		fmt.Fprintf(&b, " pushPend=%#x", s.pushPend)
	}
	fmt.Fprintf(&b, " msgs=%d\n", s.nmsgs)
	for i := 0; i < int(s.nmsgs); i++ {
		m := s.msgs[i]
		fmt.Fprintf(&b, "    msg kind=%d line=%d a=%d b=%d c=%d d=%d\n", m.kind, m.line, m.a, m.b, m.c, m.d)
	}
	return b.String()
}
