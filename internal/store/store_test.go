package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
)

func keyOf(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

func mustOpen(t *testing.T, opt Options) *Store {
	t.Helper()
	s, err := Open(opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	s := mustOpen(t, Options{Dir: t.TempDir()})
	key := keyOf("a")
	body := []byte("hello world")
	if err := s.Put("result", key, body); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get("result", key)
	if !ok || !bytes.Equal(got, body) {
		t.Fatalf("Get = %q, %v; want %q, true", got, ok, body)
	}
	if _, ok := s.Get("result", keyOf("absent")); ok {
		t.Fatal("Get of absent key succeeded")
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Writes != 1 || st.Entries != 1 || st.Bytes != int64(len(body)) {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Options{Dir: dir})
	bodies := map[string][]byte{}
	for i := 0; i < 20; i++ {
		k := keyOf(fmt.Sprint(i))
		b := []byte(fmt.Sprintf("body-%d", i))
		bodies[k] = b
		if err := s.Put("result", k, b); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, Options{Dir: dir})
	if st := s2.Stats(); st.Entries != 20 {
		t.Fatalf("reopened with %d entries, want 20", st.Entries)
	}
	for k, want := range bodies {
		got, ok := s2.Get("result", k)
		if !ok || !bytes.Equal(got, want) {
			t.Fatalf("key %s: got %q, %v", k, got, ok)
		}
	}
}

func TestNamespacesAreDisjoint(t *testing.T) {
	s := mustOpen(t, Options{Dir: t.TempDir()})
	key := keyOf("shared")
	if err := s.Put("result", key, []byte("r")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("snap", key, []byte("s")); err != nil {
		t.Fatal(err)
	}
	r, _ := s.Get("result", key)
	sn, _ := s.Get("snap", key)
	if string(r) != "r" || string(sn) != "s" {
		t.Fatalf("namespace collision: result=%q snap=%q", r, sn)
	}
}

func TestRejectsBadKeysAndNamespaces(t *testing.T) {
	s := mustOpen(t, Options{Dir: t.TempDir()})
	for _, bad := range []struct{ ns, key string }{
		{"result", "short"},
		{"result", "../../../../etc/passwd0000000000000000000000000000000000000000"},
		{"result", "ABCDEF0123456789ABCDEF0123456789"}, // uppercase
		{"tmp", keyOf("x")},
		{"quarantine", keyOf("x")},
		{"", keyOf("x")},
		{"Res/ult", keyOf("x")},
	} {
		if err := s.Put(bad.ns, bad.key, []byte("x")); err == nil {
			t.Errorf("Put(%q, %q) accepted", bad.ns, bad.key)
		}
		if _, ok := s.Get(bad.ns, bad.key); ok {
			t.Errorf("Get(%q, %q) succeeded", bad.ns, bad.key)
		}
	}
}

// corruptEntryFile flips a byte inside the stored body of key.
func corruptEntryFile(t *testing.T, dir, ns, key string) {
	t.Helper()
	path := filepath.Join(dir, ns, key[:2], key)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestOpenQuarantinesCorruptEntries(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Options{Dir: dir})
	good, bad := keyOf("good"), keyOf("bad")
	if err := s.Put("result", good, []byte("good-body")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("result", bad, []byte("bad-body")); err != nil {
		t.Fatal(err)
	}
	// A truncated entry (crash mid-hardware-failure; rename made it
	// visible but the disk lied about the fsync).
	trunc := keyOf("trunc")
	if err := s.Put("result", trunc, []byte("truncated-body")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	corruptEntryFile(t, dir, "result", bad)
	tpath := filepath.Join(dir, "result", trunc[:2], trunc)
	raw, err := os.ReadFile(tpath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(tpath, raw[:len(raw)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, Options{Dir: dir})
	st := s2.Stats()
	if st.Corrupt != 2 {
		t.Fatalf("Corrupt = %d, want 2", st.Corrupt)
	}
	if st.Entries != 1 {
		t.Fatalf("Entries = %d, want 1", st.Entries)
	}
	if _, ok := s2.Get("result", bad); ok {
		t.Fatal("corrupted entry still served")
	}
	if got, ok := s2.Get("result", good); !ok || string(got) != "good-body" {
		t.Fatalf("good entry lost: %q, %v", got, ok)
	}
	// The corrupt bytes were set aside, not deleted.
	q, err := os.ReadDir(filepath.Join(dir, quarantineDir))
	if err != nil {
		t.Fatal(err)
	}
	if len(q) != 2 {
		t.Fatalf("quarantine holds %d files, want 2", len(q))
	}
}

// TestOpenVerifiesThroughOneBuffer reopens a store of many entries:
// every entry is still fully verified (the corrupt one is quarantined,
// the verifier sees each body whole), yet the scan allocates in
// proportion to the largest entry, not to the sum of them, because
// every entry is read into one reused buffer.
func TestOpenVerifiesThroughOneBuffer(t *testing.T) {
	const entries, size = 32, 64 << 10
	dir := t.TempDir()
	s := mustOpen(t, Options{Dir: dir})
	bodies := make(map[string][]byte)
	for i := 0; i < entries; i++ {
		body := bytes.Repeat([]byte{byte('a' + i%26)}, size-i) // sizes differ: a shorter entry reuses a longer one's buffer
		k := keyOf(fmt.Sprint("buf", i))
		bodies[k] = body
		if err := s.Put("snap", k, body); err != nil {
			t.Fatal(err)
		}
	}
	bad := keyOf("buf-bad")
	if err := s.Put("snap", bad, []byte("short corrupt body")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	corruptEntryFile(t, dir, "snap", bad)

	verified := 0
	verify := func(b []byte) error {
		verified++
		if len(b) == 0 || len(b) > size || bytes.Count(b, b[:1]) != len(b) {
			return fmt.Errorf("verifier saw a mixed body of %d bytes", len(b))
		}
		return nil
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s2 := mustOpen(t, Options{Dir: dir, Verify: map[string]VerifyFunc{"snap": verify}})
	runtime.ReadMemStats(&after)

	if st := s2.Stats(); st.Corrupt != 1 || st.Entries != entries {
		t.Fatalf("stats = %+v, want 1 corrupt / %d entries", st, entries)
	}
	if verified != entries {
		t.Errorf("verifier ran on %d bodies, want %d", verified, entries)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 4*size {
		t.Errorf("reopen allocated %d bytes for %d entries of up to %d bytes, want at most %d",
			alloc, entries, size, 4*size)
	}
	var held [][]byte
	for k, want := range bodies { //dstore:allow-maprange order does not matter
		got, ok := s2.Get("snap", k)
		if !ok || !bytes.Equal(got, want) {
			t.Fatalf("entry %s: got %d bytes, ok=%v", k[:8], len(got), ok)
		}
		held = append(held, got)
	}
	for _, b := range held {
		if bytes.Count(b, b[:1]) != len(b) {
			t.Fatal("a body returned by Get changed under a later Get")
		}
	}
}

func TestGetQuarantinesRuntimeRot(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Options{Dir: dir})
	key := keyOf("rot")
	if err := s.Put("result", key, []byte("rot-body")); err != nil {
		t.Fatal(err)
	}
	corruptEntryFile(t, dir, "result", key)
	if _, ok := s.Get("result", key); ok {
		t.Fatal("rotted entry served")
	}
	st := s.Stats()
	if st.Corrupt != 1 || st.Entries != 0 {
		t.Fatalf("stats = %+v, want 1 corrupt and 0 entries", st)
	}
	// The slot is reusable after quarantine.
	if err := s.Put("result", key, []byte("rot-body")); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get("result", key); !ok || string(got) != "rot-body" {
		t.Fatalf("rewritten entry: %q, %v", got, ok)
	}
}

func TestVerifierQuarantinesAtOpen(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Options{Dir: dir})
	good, bad := keyOf("v-good"), keyOf("v-bad")
	if err := s.Put("snap", good, []byte("SNAPgood")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("snap", bad, []byte("JUNKbad")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	verify := func(b []byte) error {
		if !bytes.HasPrefix(b, []byte("SNAP")) {
			return fmt.Errorf("bad snapshot prefix")
		}
		return nil
	}
	s2 := mustOpen(t, Options{Dir: dir, Verify: map[string]VerifyFunc{"snap": verify}})
	if st := s2.Stats(); st.Corrupt != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 corrupt / 1 entry", st)
	}
	if _, ok := s2.Get("snap", bad); ok {
		t.Fatal("verifier-rejected entry served")
	}
	if _, ok := s2.Get("snap", good); !ok {
		t.Fatal("verifier-passing entry lost")
	}
}

func TestSizeCapEvictsLRU(t *testing.T) {
	// Cap of 100 bytes with 10×20-byte bodies: only 5 fit.
	s := mustOpen(t, Options{Dir: t.TempDir(), MaxBytes: 100})
	body := bytes.Repeat([]byte("x"), 20)
	var keys []string
	for i := 0; i < 10; i++ {
		k := keyOf(fmt.Sprint(i))
		keys = append(keys, k)
		if err := s.Put("result", k, body); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Entries != 5 || st.Bytes != 100 || st.Evictions != 5 {
		t.Fatalf("stats = %+v, want 5 entries / 100 bytes / 5 evictions", st)
	}
	for i, k := range keys {
		_, ok := s.Get("result", k)
		if want := i >= 5; ok != want {
			t.Fatalf("key %d present = %v, want %v", i, ok, want)
		}
	}

	// Touching key 5 makes key 6 the eviction victim for the next Put.
	if _, ok := s.Get("result", keys[5]); !ok {
		t.Fatal("key 5 missing")
	}
	if err := s.Put("result", keyOf("fresh"), body); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("result", keys[6]); ok {
		t.Fatal("key 6 survived eviction despite being LRU")
	}
	if _, ok := s.Get("result", keys[5]); !ok {
		t.Fatal("recently used key 5 was evicted")
	}
}

func TestCrashLeftoverTempFilesSwept(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Options{Dir: dir})
	if err := s.Put("result", keyOf("x"), []byte("x-body")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a writer that died between CreateTemp and rename.
	if err := os.WriteFile(filepath.Join(dir, tmpDir, "put-dead"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, Options{Dir: dir})
	if st := s2.Stats(); st.Entries != 1 || st.Corrupt != 0 {
		t.Fatalf("stats = %+v", st)
	}
	left, err := os.ReadDir(filepath.Join(dir, tmpDir))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Fatalf("%d temp files survived reopen", len(left))
	}
}

func TestDuplicatePutIsNoop(t *testing.T) {
	s := mustOpen(t, Options{Dir: t.TempDir()})
	key := keyOf("dup")
	if err := s.Put("result", key, []byte("body")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("result", key, []byte("body")); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Writes != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want a single write", st)
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := mustOpen(t, Options{Dir: t.TempDir()})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := keyOf(fmt.Sprintf("%d-%d", g, i%10))
				body := []byte(fmt.Sprintf("%d-%d", g, i%10))
				if err := s.Put("result", k, body); err != nil {
					t.Error(err)
					return
				}
				got, ok := s.Get("result", k)
				if !ok || !bytes.Equal(got, body) {
					t.Errorf("round trip %s: %q, %v", k, got, ok)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if st := s.Stats(); st.Entries != 80 {
		t.Fatalf("entries = %d, want 80", st.Entries)
	}
}

func TestClosedStoreRefuses(t *testing.T) {
	s := mustOpen(t, Options{Dir: t.TempDir()})
	key := keyOf("closed")
	if err := s.Put("result", key, []byte("b")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal("second Close not idempotent:", err)
	}
	if _, ok := s.Get("result", key); ok {
		t.Fatal("Get succeeded on closed store")
	}
	if err := s.Put("result", keyOf("new"), []byte("b")); err == nil {
		t.Fatal("Put succeeded on closed store")
	}
}

// TestConcurrentGetOfSameTornObject races many readers onto one entry
// that rotted on disk after Open: every reader must get a miss (never
// the corrupt bytes), and exactly one of them must win the quarantine
// rename — one file in quarantine/, one Corrupt count, no
// double-counting from the racers whose rename finds the source
// already moved.
func TestConcurrentGetOfSameTornObject(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Options{Dir: dir})
	key := keyOf("torn")
	if err := s.Put("result", key, []byte("torn-body")); err != nil {
		t.Fatal(err)
	}
	corruptEntryFile(t, dir, "result", key)

	const readers = 16
	var wg sync.WaitGroup
	start := make(chan struct{})
	served := make(chan []byte, readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if body, ok := s.Get("result", key); ok {
				served <- body
			}
		}()
	}
	close(start)
	wg.Wait()
	close(served)
	for body := range served {
		t.Fatalf("a reader was served the torn entry: %q", body)
	}

	st := s.Stats()
	if st.Corrupt != 1 {
		t.Fatalf("Corrupt = %d, want exactly 1 (quarantine double-counted)", st.Corrupt)
	}
	if st.Entries != 0 {
		t.Fatalf("Entries = %d, want 0 after quarantine", st.Entries)
	}
	qfiles, err := os.ReadDir(filepath.Join(dir, "quarantine"))
	if err != nil {
		t.Fatal(err)
	}
	if len(qfiles) != 1 {
		names := make([]string, 0, len(qfiles))
		for _, f := range qfiles {
			names = append(names, f.Name())
		}
		t.Fatalf("quarantine holds %d files %v, want exactly 1", len(qfiles), names)
	}
	// The original slot must be gone and reusable.
	if _, err := os.Lstat(filepath.Join(dir, "result", key[:2], key)); !os.IsNotExist(err) {
		t.Fatalf("torn entry still present after quarantine: %v", err)
	}
	if err := s.Put("result", key, []byte("torn-body")); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get("result", key); !ok || string(got) != "torn-body" {
		t.Fatalf("rewritten entry: %q, %v", got, ok)
	}
}
