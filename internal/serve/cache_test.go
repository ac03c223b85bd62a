package serve

import (
	"bytes"
	"testing"
)

func TestCacheLRUEviction(t *testing.T) {
	c := newResultCache(2)
	c.Put("a", []byte("A"))
	c.Put("b", []byte("B"))
	// Touch a so b is the LRU entry when c arrives.
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a missing")
	}
	c.Put("c", []byte("C"))
	if _, ok := c.lookup("b"); ok {
		t.Fatal("b not evicted")
	}
	if v, ok := c.lookup("a"); !ok || !bytes.Equal(v, []byte("A")) {
		t.Fatal("a lost")
	}
	if v, ok := c.lookup("c"); !ok || !bytes.Equal(v, []byte("C")) {
		t.Fatal("c lost")
	}
	hits, misses, evictions, size := c.stats()
	if hits != 1 || misses != 0 || evictions != 1 || size != 2 {
		t.Fatalf("stats = hits %d, misses %d, evictions %d, size %d", hits, misses, evictions, size)
	}
}

func TestCacheGetCountsLookupDoesNot(t *testing.T) {
	c := newResultCache(4)
	if _, ok := c.Get("x"); ok {
		t.Fatal("phantom hit")
	}
	if _, ok := c.lookup("x"); ok {
		t.Fatal("phantom lookup hit")
	}
	c.Put("x", []byte("X"))
	c.Get("x")
	c.lookup("x")
	hits, misses, _, _ := c.stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("hits %d, misses %d; want 1, 1 (lookup must not count)", hits, misses)
	}
}

func TestCachePutReplaces(t *testing.T) {
	c := newResultCache(2)
	c.Put("a", []byte("old"))
	c.Put("a", []byte("new"))
	v, ok := c.lookup("a")
	if !ok || string(v) != "new" {
		t.Fatalf("got %q", v)
	}
	if _, _, _, size := c.stats(); size != 1 {
		t.Fatalf("size = %d, want 1", size)
	}
}
