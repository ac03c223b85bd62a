// Package store is the persistent layer beneath dstore-serve's
// in-memory caches: a content-addressed, disk-backed store keyed by
// the same SHA-256 hex IDs the result and snapshot LRUs already use,
// so warm prefixes and cached results survive process restarts
// (DESIGN.md §12).
//
// Crash safety contract: every Put writes a checksummed entry to a
// temp file, fsyncs it, renames it into place, and fsyncs the
// directory — a crash at any point leaves either the old state or the
// new state, never a torn entry. Open verifies every entry's content
// hash (and any namespace-specific deep check, e.g. the DSSNAP
// snapshot fingerprint) and quarantines entries that fail instead of
// refusing to boot: a corrupted cache entry costs a re-simulation,
// not an outage.
//
// The store is size-capped: when the sum of entry bodies exceeds
// MaxBytes the least recently used entries are deleted. Recency is
// tracked in memory; across a restart it is reconstructed from file
// modification times, so a freshly opened store evicts oldest-written
// first until its own access history accumulates.
package store

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// entryMagic heads every entry file, versioned so a future layout
// change quarantines old files instead of misreading them.
const entryMagic = "DSCAS1"

// headerLen is magic + u64 body length + 32-byte SHA-256 of the body.
const headerLen = len(entryMagic) + 8 + sha256.Size

// DefaultMaxBytes caps the store when Options.MaxBytes is zero.
const DefaultMaxBytes = 256 << 20

// VerifyFunc deep-checks an entry body beyond the content hash (e.g.
// the DSSNAP container header for snapshot entries). A non-nil error
// quarantines the entry at Open. It must not keep body: at Open every
// entry is read into one reused buffer.
type VerifyFunc func(body []byte) error

// Options configures Open.
type Options struct {
	// Dir is the store root. Created if absent.
	Dir string
	// MaxBytes caps the sum of stored body bytes; least recently used
	// entries are evicted past it. Zero means DefaultMaxBytes,
	// negative means unlimited.
	MaxBytes int64
	// Verify maps a namespace to a deep check run against every entry
	// of that namespace at Open (and on every Get). Namespaces without
	// an entry are verified by content hash only.
	Verify map[string]VerifyFunc
}

// Stats is a point-in-time snapshot of the store counters.
type Stats struct {
	Hits      uint64 // Gets answered from disk
	Misses    uint64 // Gets with no (valid) entry
	Writes    uint64 // entries written (skipped duplicate Puts excluded)
	Evictions uint64 // entries deleted by the size cap
	Corrupt   uint64 // entries quarantined (at Open or on a failed Get)
	Bytes     int64  // sum of stored body bytes
	Entries   int    // live entries
}

// Store is a disk-backed content-addressed key→blob map. Safe for
// concurrent use.
type Store struct {
	dir    string
	max    int64
	verify map[string]VerifyFunc

	mu      sync.Mutex
	closed  bool
	ll      *list.List // front = most recently used
	entries map[string]*list.Element

	hits, misses, writes, evictions, corrupt uint64
	bytes                                    int64
}

type diskEntry struct {
	key  string // "ns/hexid"
	size int64  // body bytes
}

// tmpDir and quarantineDir are reserved top-level names; namespaces
// may not collide with them.
const (
	tmpDir        = "tmp"
	quarantineDir = "quarantine"
)

// Open loads (or creates) the store rooted at opt.Dir: leftover temp
// files from a crashed writer are removed, every entry is read back
// and verified, and entries that fail verification are renamed into
// the quarantine directory and counted in Stats.Corrupt.
func Open(opt Options) (*Store, error) {
	if opt.Dir == "" {
		return nil, errors.New("store: empty directory")
	}
	max := opt.MaxBytes
	if max == 0 {
		max = DefaultMaxBytes
	}
	s := &Store{
		dir:     opt.Dir,
		max:     max,
		verify:  opt.Verify,
		ll:      list.New(),
		entries: make(map[string]*list.Element),
	}
	for _, d := range []string{opt.Dir, filepath.Join(opt.Dir, tmpDir), filepath.Join(opt.Dir, quarantineDir)} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	if err := s.sweepTemp(); err != nil {
		return nil, err
	}
	if err := s.scan(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.evictLocked()
	s.mu.Unlock()
	return s, nil
}

// sweepTemp deletes temp files abandoned by a crashed writer.
func (s *Store) sweepTemp() error {
	names, err := os.ReadDir(filepath.Join(s.dir, tmpDir))
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	for _, de := range names {
		_ = os.Remove(filepath.Join(s.dir, tmpDir, de.Name()))
	}
	return nil
}

// scan indexes and verifies every entry on disk. Entries are ordered
// oldest-modified first so the reconstructed LRU list evicts
// oldest-written entries until real access history accumulates.
func (s *Store) scan() error {
	type found struct {
		key  string
		path string
		mod  time.Time
		size int64
	}
	var all []found
	nss, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	for _, nsDir := range nss {
		ns := nsDir.Name()
		if !nsDir.IsDir() || ns == tmpDir || ns == quarantineDir {
			continue
		}
		shards, err := os.ReadDir(filepath.Join(s.dir, ns))
		if err != nil {
			return fmt.Errorf("store: %w", err)
		}
		for _, shard := range shards {
			if !shard.IsDir() {
				continue
			}
			files, err := os.ReadDir(filepath.Join(s.dir, ns, shard.Name()))
			if err != nil {
				return fmt.Errorf("store: %w", err)
			}
			for _, f := range files {
				if f.IsDir() {
					continue
				}
				if !validKey(f.Name()) || f.Name()[:2] != shard.Name() {
					// Not a store entry (or misfiled): set it aside rather
					// than indexing a file path() can't reconstruct.
					s.quarantine(filepath.Join(s.dir, ns, shard.Name(), f.Name()), ns+"/"+f.Name())
					continue
				}
				info, err := f.Info()
				if err != nil {
					continue // deleted underneath us
				}
				all = append(all, found{
					key:  ns + "/" + f.Name(),
					path: filepath.Join(s.dir, ns, shard.Name(), f.Name()),
					mod:  info.ModTime(),
					size: info.Size(),
				})
			}
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if !all[i].mod.Equal(all[j].mod) {
			return all[i].mod.Before(all[j].mod)
		}
		return all[i].key < all[j].key
	})
	// One buffer, grown to the largest entry, holds each entry while it
	// is verified.
	var buf []byte
	for _, f := range all {
		body, err := s.readEntry(f.path, f.key, &buf)
		if err != nil {
			s.quarantine(f.path, f.key)
			continue
		}
		el := s.ll.PushFront(&diskEntry{key: f.key, size: int64(len(body))})
		s.entries[f.key] = el
		s.bytes += int64(len(body))
	}
	return nil
}

// readEntry reads and fully verifies one entry file: magic, declared
// length, content hash, and the namespace deep check. The file is
// read into *buf, so the body aliases *buf until the next call.
func (s *Store) readEntry(path, key string, buf *[]byte) ([]byte, error) {
	raw, err := readFile(path, buf)
	if err != nil {
		return nil, err
	}
	if len(raw) < headerLen || string(raw[:len(entryMagic)]) != entryMagic {
		return nil, fmt.Errorf("store: %s: bad entry header", key)
	}
	n := binary.LittleEndian.Uint64(raw[len(entryMagic):])
	body := raw[headerLen:]
	if uint64(len(body)) != n {
		return nil, fmt.Errorf("store: %s: truncated entry (%d of %d body bytes)", key, len(body), n)
	}
	var want [sha256.Size]byte
	copy(want[:], raw[len(entryMagic)+8:headerLen])
	if sha256.Sum256(body) != want {
		return nil, fmt.Errorf("store: %s: content hash mismatch", key)
	}
	if fn := s.verify[namespaceOf(key)]; fn != nil {
		if err := fn(body); err != nil {
			return nil, fmt.Errorf("store: %s: %w", key, err)
		}
	}
	return body, nil
}

// readFile reads a whole file into *buf, grown as needed.
func readFile(path string, buf *[]byte) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, err
	}
	n := int(info.Size())
	if cap(*buf) < n {
		*buf = make([]byte, n)
	}
	raw := (*buf)[:n]
	if _, err := io.ReadFull(f, raw); err != nil {
		return nil, err
	}
	return raw, nil
}

func namespaceOf(key string) string {
	if i := strings.IndexByte(key, '/'); i >= 0 {
		return key[:i]
	}
	return ""
}

// quarantine moves a failed entry aside (never deletes: the bytes may
// matter for a post-mortem) and counts it. Concurrent readers of the
// same torn entry race here; rename is atomic, so exactly one of them
// moves the file — only that one counts, the losers' renames fail on
// the now-missing source and are deliberately silent.
func (s *Store) quarantine(path, key string) {
	dst := filepath.Join(s.dir, quarantineDir, strings.ReplaceAll(key, "/", "_"))
	for i := 0; ; i++ {
		name := dst
		if i > 0 {
			name = fmt.Sprintf("%s.%d", dst, i)
		}
		if _, err := os.Lstat(name); os.IsNotExist(err) {
			dst = name
			break
		}
	}
	if os.Rename(path, dst) != nil {
		return // a racing reader already moved (or removed) it
	}
	s.mu.Lock()
	s.corrupt++
	s.mu.Unlock()
}

// validKey requires lowercase-hex content addresses of plausible hash
// length: they double as file names, so nothing else is accepted.
func validKey(key string) bool {
	if len(key) < 16 || len(key) > 128 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func validNamespace(ns string) bool {
	if ns == "" || ns == tmpDir || ns == quarantineDir {
		return false
	}
	for i := 0; i < len(ns); i++ {
		c := ns[i]
		if (c < 'a' || c > 'z') && c != '-' {
			return false
		}
	}
	return true
}

func (s *Store) path(key string) string {
	ns := namespaceOf(key)
	id := key[len(ns)+1:]
	return filepath.Join(s.dir, ns, id[:2], id)
}

// Get returns the body stored under (ns, key). A stored entry that no
// longer verifies is quarantined and reported as a miss.
func (s *Store) Get(ns, key string) ([]byte, bool) {
	if !validNamespace(ns) || !validKey(key) {
		return nil, false
	}
	full := ns + "/" + key
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, false
	}
	el, ok := s.entries[full]
	if !ok {
		s.misses++
		s.mu.Unlock()
		return nil, false
	}
	s.ll.MoveToFront(el)
	s.mu.Unlock()

	var buf []byte // the caller keeps the body
	body, err := s.readEntry(s.path(full), full, &buf)
	if err != nil {
		// On-disk rot after Open: drop the index entry and set it aside.
		s.mu.Lock()
		if el2, still := s.entries[full]; still {
			s.bytes -= el2.Value.(*diskEntry).size
			s.ll.Remove(el2)
			delete(s.entries, full)
		}
		s.misses++
		s.mu.Unlock()
		s.quarantine(s.path(full), full)
		return nil, false
	}
	s.mu.Lock()
	s.hits++
	s.mu.Unlock()
	return body, true
}

// Put durably stores body under (ns, key): temp file, fsync, rename,
// directory fsync. A key already present is left untouched — entries
// are content-addressed, so an overwrite could only write the same
// bytes again.
func (s *Store) Put(ns, key string, body []byte) error {
	if !validNamespace(ns) {
		return fmt.Errorf("store: invalid namespace %q", ns)
	}
	if !validKey(key) {
		return fmt.Errorf("store: invalid key %q", key)
	}
	full := ns + "/" + key
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("store: closed")
	}
	if _, ok := s.entries[full]; ok {
		s.mu.Unlock()
		return nil
	}
	s.mu.Unlock()

	if err := s.writeFile(full, body); err != nil {
		return err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.entries[full]; !ok {
		el := s.ll.PushFront(&diskEntry{key: full, size: int64(len(body))})
		s.entries[full] = el
		s.bytes += int64(len(body))
		s.writes++
	}
	s.evictLocked()
	return nil
}

// writeFile performs the crash-safe entry write.
func (s *Store) writeFile(full string, body []byte) error {
	final := s.path(full)
	if err := os.MkdirAll(filepath.Dir(final), 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Join(s.dir, tmpDir), "put-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename

	hdr := make([]byte, headerLen)
	copy(hdr, entryMagic)
	binary.LittleEndian.PutUint64(hdr[len(entryMagic):], uint64(len(body)))
	sum := sha256.Sum256(body)
	copy(hdr[len(entryMagic)+8:], sum[:])
	if _, err := tmp.Write(hdr); err == nil {
		_, err = tmp.Write(body)
		if err == nil {
			err = tmp.Sync()
		}
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp.Name(), final); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return syncDir(filepath.Dir(final))
}

// evictLocked deletes least recently used entries until the store is
// within its byte cap. Caller holds s.mu.
func (s *Store) evictLocked() {
	if s.max < 0 {
		return
	}
	for s.bytes > s.max && s.ll.Len() > 0 {
		oldest := s.ll.Back()
		de := oldest.Value.(*diskEntry)
		s.ll.Remove(oldest)
		delete(s.entries, de.key)
		s.bytes -= de.size
		s.evictions++
		_ = os.Remove(s.path(de.key))
	}
}

// Stats snapshots the counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Hits: s.hits, Misses: s.misses, Writes: s.writes,
		Evictions: s.evictions, Corrupt: s.corrupt,
		Bytes: s.bytes, Entries: s.ll.Len(),
	}
}

// Sync fsyncs the store root. Entry writes are individually durable
// (Put fsyncs file and parent directory), so this is a final barrier
// for shutdown paths.
func (s *Store) Sync() error {
	return syncDir(s.dir)
}

// Close syncs and marks the store closed; subsequent Gets miss and
// Puts fail. Idempotent.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	return s.Sync()
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}
