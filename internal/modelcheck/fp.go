package modelcheck

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"unsafe"

	"dstore/internal/freelist"
)

// Hash-compacted visited set (Wolper/Leroy bit-state hashing's exact
// cousin): instead of storing every explored state (~300 bytes each),
// the checker stores its 64-bit fingerprint — 8 bytes per state, no
// pointer churn, no GC pressure. A run that finds a violation explores
// its levels a second time with a tracing table, which also keeps each
// state's minimal parent fingerprint and BFS depth; the counterexample
// is rebuilt by walking that parent chain and forward-replaying
// successors to match fingerprints.
//
// The price is a vanishing probability of a collision silently merging
// two distinct states (and hiding whatever lies beyond one of them):
// with n states the expected number of colliding pairs is about
// n²/2^65 — under 5e-7 for the 4.2M states of the standard sweep. The
// single-threaded exact checker caught its bugs long before this
// scale; the fingerprint checker is what makes 2-GPU configs fit CI.
//
// The BFS workers share one table of 64 shards. Most inserts find
// their state already there, and those read the shard's slot array
// without taking its lock (see fpTable); only a new state locks.

// stateSize is the byte size of the state struct. state is composed
// exclusively of uint8 fields and arrays of uint8-only structs, so it
// has no padding and the byte view below is a faithful encoding
// (TestStateNoPadding pins this).
const stateSize = int(unsafe.Sizeof(state{}))

// stateBytes returns the raw byte encoding of s. Valid only while s is
// live; callers never retain the slice.
func stateBytes(s *state) []byte {
	return (*[stateSize]byte)(unsafe.Pointer(s))[:]
}

// msgSize is the byte size of one message slot (all-uint8, no padding).
const msgSize = int(unsafe.Sizeof(msg{}))

// fpState fingerprints s, hashing only its live prefix: the message
// array is the last bulk field and slots past nmsgs are always zero, so
// they carry no information — skipping them roughly halves the bytes
// hashed per state (168 dead bytes at nmsgs == 0). The trailing nmsgs
// byte itself is dropped too: it is implied by the hashed length, which
// seeds the hash, so two states with different message counts can never
// hash the same truncated bytes with the same seed.
func fpState(s *state) uint64 {
	live := stateSize - 1 - (maxMsgs-int(s.nmsgs))*msgSize
	return fingerprint(stateBytes(s)[:live])
}

// copyLive copies src into dst touching only src's live prefix —
// everything up to its last in-flight message. Message slots that were
// live in dst but are dead in src are re-zeroed first, preserving the
// all-dead-slots-zero invariant the byte encoding relies on. At
// typical message counts this moves half the bytes of a full struct
// copy, and the successor generator copies one state per transition.
func copyLive(dst, src *state) {
	for i := int(src.nmsgs); i < int(dst.nmsgs); i++ {
		dst.msgs[i] = msg{}
	}
	live := stateSize - 1 - (maxMsgs-int(src.nmsgs))*msgSize
	copy(stateBytes(dst)[:live], stateBytes(src)[:live])
	dst.nmsgs = src.nmsgs
}

// fingerprint hashes a state encoding to 64 bits with a fixed seed —
// deterministic across runs, platforms and worker counts. Two
// independent accumulator lanes break the serial multiply-rotate
// dependency chain, nearly doubling throughput on a superscalar core.
func fingerprint(b []byte) uint64 {
	const (
		k0  = 0x9ae16a3b2f90404f
		mul = 0x9ddfea08eb382d69
	)
	h1 := uint64(len(b))*k0 + 1 // +1 keeps the all-zero state off fp 0
	h2 := uint64(len(b)) ^ mul
	for len(b) >= 16 {
		h1 ^= binary.LittleEndian.Uint64(b) * mul
		h1 = bits.RotateLeft64(h1, 31) * k0
		h2 ^= binary.LittleEndian.Uint64(b[8:]) * k0
		h2 = bits.RotateLeft64(h2, 29) * mul
		b = b[16:]
	}
	if len(b) >= 8 {
		h1 ^= binary.LittleEndian.Uint64(b) * mul
		h1 = bits.RotateLeft64(h1, 31) * k0
		b = b[8:]
	}
	var last uint64
	for i := len(b) - 1; i >= 0; i-- {
		last = last<<8 | uint64(b[i])
	}
	h := h1 ^ bits.RotateLeft64(h2, 17)
	h ^= last * mul
	h ^= h >> 33
	h *= mul
	h ^= h >> 29
	if h == 0 {
		h = 1 // 0 is the table's empty-slot sentinel
	}
	return h
}

// fpShards is the number of independently locked table shards. Shard
// selection uses high fingerprint bits, slot probing uses low bits, so
// the two never correlate.
const fpShards = 64

// fpTable is the sharded insert-only visited set. About four inserts
// in five find their state already present (21.3M transitions reach
// 4.2M states in the standard sweep), so a plain table answers those
// without a lock: insert probes the shard's published slot array with
// atomic loads and returns "seen" on a match. Only a probe that reaches
// an empty slot takes the shard lock, probes the current array again
// (another worker may have claimed the slot or grown the shard since)
// and claims the slot with an atomic store. A tracing table (trace
// true) also keeps each state's parent and depth, which only
// counterexample reconstruction reads; its duplicate path updates the
// min-parent tie-break, so every tracing insert takes the lock.
type fpTable struct {
	shards [fpShards]fpShard
	trace  bool
}

// fpShard is one open-addressing shard, padded to whole cache lines so
// that locking one shard does not invalidate, in other cores' caches,
// the line that holds a neighbour's published array.
type fpShard struct {
	fpShardState
	_ [(cacheLine - unsafe.Sizeof(fpShardState{})%cacheLine) % cacheLine]byte
}

// cacheLine is the x86-64 and arm64 cache-line size.
const cacheLine = 64

// fpMaxGens bounds how many slot arrays a shard grows through: the
// last holds 2^(fpInitBits+fpMaxGens-1) slots, so a plain table tops
// out past 400M states, more memory than a CI host has.
const fpMaxGens = 10

// fpShardState is a shard's content. gens[:ngen] are the slot arrays
// the shard grew through, smallest first (0 marks an empty slot); the
// last is current and cur publishes it to lock-free readers. The
// others are retired but stay here until release: a reader that loaded
// cur before a grow may still be probing one, and were it recycled at
// once, a concurrent run could refill it with its own fingerprints,
// which that reader would match, losing a state. gens doubles as the
// storage cur points into, so publishing allocates nothing. In a
// tracing table parent[i] and depth[i] belong to the current array's
// slot i; the root's parent is its own fingerprint.
type fpShardState struct {
	cur    atomic.Pointer[[]uint64]
	mu     sync.Mutex
	n      int
	ngen   int
	gens   [fpMaxGens][]uint64
	parent []uint64
	depth  []int32
}

// fpInitBits sizes each shard's initial slot array (2^14 slots × 64
// shards × 8 bytes = 8 MB for a plain table). Sized so sweep-scale runs
// (~2M states, ~30K entries per shard) rehash at most once or twice:
// growth rehashes re-place every entry, but starting bigger measurably
// hurts — random probes over a large sparse table miss cache and TLB
// more than the occasional rehash costs. A plain table draws its arrays
// from fpFree and gives them all back when its run ends, so across a
// sweep each array size is allocated once, not per config.
const fpInitBits = 14

// fpFree holds plain tables' shard arrays between uses, keyed by slot
// count and cleared when given back (0 marks an empty slot), and
// fpTables the tables themselves (20 KB of shard state each). Both are
// process-wide and bounded by arenaBytes, like blockFree. Tracing
// tables, built only to rebuild a counterexample, allocate their own.
var (
	fpFree   = freelist.New[uint64](arenaBytes)
	fpTables = freelist.New[fpTable](arenaBytes)
)

// newFPTable returns an empty table, each shard holding its initial
// slot array.
func newFPTable(trace bool) *fpTable {
	var t *fpTable
	if trace {
		t = &fpTable{trace: true}
	} else {
		t = &fpTables.Get(1)[0]
	}
	for i := range t.shards {
		sh := &t.shards[i]
		sh.add(1<<fpInitBits, trace)
		sh.publish()
	}
	return t
}

// release gives a plain table's shard arrays, retired ones included,
// back to fpFree, and the table to fpTables; the caller must not use it
// again. The run's workers must have joined: no reader may still be
// probing a retired array. A tracing table is left as is.
func (t *fpTable) release() {
	if t.trace {
		return
	}
	for i := range t.shards {
		sh := &t.shards[i]
		for _, fps := range sh.gens[:sh.ngen] {
			fpFree.Put(fps)
		}
	}
	fpTables.Put(unsafe.Slice(t, 1))
}

// add gives the shard a new empty current array of size slots, and a
// tracing shard new parent and depth arrays, publishing it to readers
// only once the caller has filled it: grow re-places every entry first.
func (sh *fpShard) add(size int, trace bool) []uint64 {
	if sh.ngen == fpMaxGens {
		panic(fmt.Sprintf("modelcheck: a visited-set shard outgrew %d slots", size/2))
	}
	var fps []uint64
	if trace {
		fps = make([]uint64, size)
		sh.parent = make([]uint64, size)
		sh.depth = make([]int32, size)
	} else {
		fps = fpFree.Get(size)
	}
	sh.gens[sh.ngen] = fps
	sh.ngen++
	return fps
}

// publish makes the shard's newest array current for lock-free readers.
func (sh *fpShard) publish() {
	sh.cur.Store(&sh.gens[sh.ngen-1])
}

func (t *fpTable) shard(fp uint64) *fpShard {
	return &t.shards[(fp>>52)&(fpShards-1)]
}

// insert records fp, reached at depth from parentFP, returning whether
// the state is new. A tracing table keeps, among the parents that
// reach fp at its first depth, the smallest fingerprint — the
// deterministic tie-break that makes counterexample traces
// byte-identical at any worker count. A plain table ignores parentFP
// and depth, and answers a state it already holds without the lock.
func (t *fpTable) insert(fp, parentFP uint64, depth int32) bool {
	sh := t.shard(fp)
	if !t.trace && sh.seen(fp) {
		return false
	}
	return sh.insertLocked(fp, parentFP, depth, t.trace)
}

// seen probes the shard's published array, without the lock, for fp.
// A match is final: nothing is ever removed, and an entry found in a
// retired array is in the current one too. An empty slot is not: fp
// may have been claimed since, or the array retired, so the caller
// asks again under the lock.
func (sh *fpShard) seen(fp uint64) bool {
	fps := *sh.cur.Load()
	mask := uint64(len(fps) - 1)
	for i := fp & mask; ; i = (i + 1) & mask {
		switch atomic.LoadUint64(&fps[i]) {
		case fp:
			return true
		case 0:
			return false
		}
	}
}

// insertLocked is insert under the shard lock, over the current array.
// The slot claim is an atomic store because a plain table's lock-free
// readers may be probing the same array.
func (sh *fpShard) insertLocked(fp, parentFP uint64, depth int32, trace bool) bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	fps := sh.gens[sh.ngen-1]
	i, found := slot(fps, fp)
	if found {
		if trace && sh.depth[i] == depth && parentFP < sh.parent[i] {
			sh.parent[i] = parentFP
		}
		return false
	}
	atomic.StoreUint64(&fps[i], fp)
	if trace {
		sh.parent[i], sh.depth[i] = parentFP, depth
	}
	sh.n++
	if uint64(sh.n)*4 > uint64(len(fps))*3 {
		sh.grow(trace)
	}
	return true
}

// slot returns the index of fp in fps or, when fps lacks it, of the
// empty slot where it belongs.
func slot(fps []uint64, fp uint64) (i uint64, found bool) {
	mask := uint64(len(fps) - 1)
	for i = fp & mask; fps[i] != 0; i = (i + 1) & mask {
		if fps[i] == fp {
			return i, true
		}
	}
	return i, false
}

// lookup returns the parent and depth recorded for fp in a tracing
// table. Called only after exploration settles (trace reconstruction),
// so it still takes the shard lock but is never hot.
func (t *fpTable) lookup(fp uint64) (parentFP uint64, depth int32, ok bool) {
	sh := t.shard(fp)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if i, found := slot(sh.gens[sh.ngen-1], fp); found {
		return sh.parent[i], sh.depth[i], true
	}
	return 0, 0, false
}

// grow doubles the shard: it re-places every entry into a new array
// and only then publishes it, so a reader never probes a partly filled
// array. The old array is retired, not recycled (see fpShardState).
func (sh *fpShard) grow(trace bool) {
	fps, parent, depth := sh.gens[sh.ngen-1], sh.parent, sh.depth
	next := sh.add(len(fps)*2, trace)
	for j, fp := range fps {
		if fp == 0 {
			continue
		}
		i, _ := slot(next, fp)
		next[i] = fp
		if trace {
			sh.parent[i], sh.depth[i] = parent[j], depth[j]
		}
	}
	sh.publish()
}

// count returns the number of visited states.
func (t *fpTable) count() int {
	n := 0
	for i := range t.shards {
		t.shards[i].mu.Lock()
		n += t.shards[i].n
		t.shards[i].mu.Unlock()
	}
	return n
}
