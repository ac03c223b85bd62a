package modelcheck

import (
	"encoding/binary"
	"math/bits"
	"sync"
	"unsafe"
)

// Hash-compacted visited set (Wolper/Leroy bit-state hashing's exact
// cousin): instead of storing every explored state (~300 bytes each),
// the checker stores a 64-bit fingerprint plus the parent fingerprint
// and BFS depth — 24 bytes per state, no pointer churn, no GC
// pressure. Counterexample traces are rebuilt by walking the parent
// chain and forward-replaying successors to match fingerprints.
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

// fpEntry is one visited state: its fingerprint, the fingerprint of
// its minimal parent (the trace pointer) and its BFS depth. The root
// entry's parentFP is its own fingerprint.
type fpEntry struct {
	fp, parentFP uint64
	depth        int32
}

// fpShards is the number of independently locked table shards. Shard
// selection uses high fingerprint bits, slot probing uses low bits, so
// the two never correlate.
const fpShards = 64

// fpTable is the sharded insert-only visited set. With a single BFS
// worker (the common 1-CPU CI case) par is false and insert skips the
// shard locks entirely — the uncontended lock/unlock pair still costs
// ~6% of a big run.
type fpTable struct {
	par    bool
	shards [fpShards]fpShard
}

type fpShard struct {
	mu      sync.Mutex
	mask    uint64
	n       int
	entries []fpEntry
}

// fpInitBits sizes each shard's initial slot array (2^14 slots × 64
// shards × 24 bytes = 25 MB). Sized so sweep-scale runs (~2M states,
// ~30K entries per shard) rehash at most once or twice: growth
// rehashes re-place every entry, but starting bigger measurably hurts
// — random probes over a large sparse table miss cache and TLB more
// than the occasional rehash costs.
const fpInitBits = 14

func newFPTable() *fpTable {
	t := &fpTable{}
	for i := range t.shards {
		t.shards[i].entries = make([]fpEntry, 1<<fpInitBits)
		t.shards[i].mask = 1<<fpInitBits - 1
	}
	return t
}

func (t *fpTable) shard(fp uint64) *fpShard {
	return &t.shards[(fp>>52)&(fpShards-1)]
}

// insert records fp at depth with parent parentFP, returning whether
// the state is new. Re-inserting at the same depth keeps the smallest
// parent fingerprint — the deterministic tie-break that makes
// counterexample traces byte-identical at any worker count.
func (t *fpTable) insert(fp, parentFP uint64, depth int32) bool {
	sh := t.shard(fp)
	if t.par {
		sh.mu.Lock()
		defer sh.mu.Unlock()
	}
	i := fp & sh.mask
	for {
		e := &sh.entries[i]
		if e.fp == 0 {
			*e = fpEntry{fp: fp, parentFP: parentFP, depth: depth}
			sh.n++
			if uint64(sh.n)*4 > (sh.mask+1)*3 {
				sh.grow()
			}
			return true
		}
		if e.fp == fp {
			if e.depth == depth && parentFP < e.parentFP {
				e.parentFP = parentFP
			}
			return false
		}
		i = (i + 1) & sh.mask
	}
}

// lookup returns the entry for fp. Called only after exploration
// settles (trace reconstruction), so it still takes the shard lock but
// is never hot.
func (t *fpTable) lookup(fp uint64) (fpEntry, bool) {
	sh := t.shard(fp)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	i := fp & sh.mask
	for {
		e := sh.entries[i]
		if e.fp == 0 {
			return fpEntry{}, false
		}
		if e.fp == fp {
			return e, true
		}
		i = (i + 1) & sh.mask
	}
}

func (sh *fpShard) grow() {
	old := sh.entries
	sh.mask = sh.mask*2 + 1
	sh.entries = make([]fpEntry, sh.mask+1)
	for _, e := range old {
		if e.fp == 0 {
			continue
		}
		i := e.fp & sh.mask
		for sh.entries[i].fp != 0 {
			i = (i + 1) & sh.mask
		}
		sh.entries[i] = e
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
