package modelcheck

import (
	"encoding/binary"
	"math/bits"
	"sync"
	"unsafe"

	"dstore/internal/cache"
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

// fpTable is the sharded insert-only visited set. With a single BFS
// worker (the common 1-CPU CI case) par is false and insert skips the
// shard locks entirely — the uncontended lock/unlock pair still costs
// ~6% of a big run. A plain table holds fingerprints only; a tracing
// table (trace true) also keeps each state's parent and depth, which
// only counterexample reconstruction reads.
type fpTable struct {
	par, trace bool
	shards     [fpShards]fpShard
}

// fpShard is one open-addressing shard: fps is the probed slot array
// (0 marks an empty slot). In a tracing table parent[i] and depth[i]
// belong to fps[i]; the root's parent is its own fingerprint.
type fpShard struct {
	mu     sync.Mutex
	mask   uint64
	n      int
	fps    []uint64
	parent []uint64
	depth  []int32
}

// fpInitBits sizes each shard's initial slot array (2^14 slots × 64
// shards × 8 bytes = 8 MB for a plain table). Sized so sweep-scale runs
// (~2M states, ~30K entries per shard) rehash at most once or twice:
// growth rehashes re-place every entry, but starting bigger measurably
// hurts — random probes over a large sparse table miss cache and TLB
// more than the occasional rehash costs. A plain table draws its arrays
// from fpFree and gives them back as it grows and when its run ends,
// so across a sweep each array size is allocated once, not per config.
const fpInitBits = 14

// fpFree holds plain tables' shard arrays between uses, keyed by slot
// count and cleared when given back (0 marks an empty slot). It is
// process-wide and bounded by arenaBytes, like blockFree. Tracing
// tables, built only to rebuild a counterexample, allocate their own.
var fpFree = cache.NewFreeList[uint64](arenaBytes)

func newFPTable(par, trace bool) *fpTable {
	t := &fpTable{par: par, trace: trace}
	t.init()
	return t
}

// init gives every shard an empty initial slot array.
func (t *fpTable) init() {
	for i := range t.shards {
		t.shards[i].alloc(1<<fpInitBits, t.trace)
	}
}

// release gives a plain table's shard arrays back to fpFree and empties
// the table; it is unusable until init. A tracing table is left as is.
func (t *fpTable) release() {
	if t.trace {
		return
	}
	for i := range t.shards {
		sh := &t.shards[i]
		fpFree.Put(sh.fps)
		sh.fps, sh.mask, sh.n = nil, 0, 0
	}
}

// alloc gives the shard empty arrays of size slots.
func (sh *fpShard) alloc(size int, trace bool) {
	sh.mask = uint64(size - 1)
	if !trace {
		sh.fps = fpFree.Get(size)
		return
	}
	sh.fps = make([]uint64, size)
	sh.parent = make([]uint64, size)
	sh.depth = make([]int32, size)
}

func (t *fpTable) shard(fp uint64) *fpShard {
	return &t.shards[(fp>>52)&(fpShards-1)]
}

// insert records fp, reached at depth from parentFP, returning whether
// the state is new. A tracing table keeps, among the parents that
// reach fp at its first depth, the smallest fingerprint — the
// deterministic tie-break that makes counterexample traces
// byte-identical at any worker count. A plain table ignores parentFP
// and depth.
func (t *fpTable) insert(fp, parentFP uint64, depth int32) bool {
	sh := t.shard(fp)
	if t.par {
		sh.mu.Lock()
		defer sh.mu.Unlock()
	}
	i := fp & sh.mask
	for {
		switch sh.fps[i] {
		case 0:
			sh.fps[i] = fp
			if t.trace {
				sh.parent[i], sh.depth[i] = parentFP, depth
			}
			sh.n++
			if uint64(sh.n)*4 > (sh.mask+1)*3 {
				sh.grow(t.trace)
			}
			return true
		case fp:
			if t.trace && sh.depth[i] == depth && parentFP < sh.parent[i] {
				sh.parent[i] = parentFP
			}
			return false
		}
		i = (i + 1) & sh.mask
	}
}

// lookup returns the parent and depth recorded for fp in a tracing
// table. Called only after exploration settles (trace reconstruction),
// so it still takes the shard lock but is never hot.
func (t *fpTable) lookup(fp uint64) (parentFP uint64, depth int32, ok bool) {
	sh := t.shard(fp)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for i := fp & sh.mask; sh.fps[i] != 0; i = (i + 1) & sh.mask {
		if sh.fps[i] == fp {
			return sh.parent[i], sh.depth[i], true
		}
	}
	return 0, 0, false
}

// grow doubles the shard and re-places every entry; a plain shard
// gives its old array back to fpFree.
func (sh *fpShard) grow(trace bool) {
	fps, parent, depth := sh.fps, sh.parent, sh.depth
	sh.alloc(len(fps)*2, trace)
	for j, fp := range fps {
		if fp == 0 {
			continue
		}
		i := fp & sh.mask
		for sh.fps[i] != 0 {
			i = (i + 1) & sh.mask
		}
		sh.fps[i] = fp
		if trace {
			sh.parent[i], sh.depth[i] = parent[j], depth[j]
		}
	}
	if !trace {
		fpFree.Put(fps)
	}
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
