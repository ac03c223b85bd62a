package fleet

import (
	"fmt"
	"testing"
)

func TestRingOwnersDistinctAndDeterministic(t *testing.T) {
	urls := []string{"http://a:1", "http://b:1", "http://c:1"}
	r := buildRing(urls, 64)
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("%064d", i)
		got := r.owners(key)
		if len(got) != 3 {
			t.Fatalf("owners(%q) = %v, want 3 distinct workers", key, got)
		}
		seen := map[string]bool{}
		for _, u := range got {
			if seen[u] {
				t.Fatalf("owners(%q) repeats %q: %v", key, u, got)
			}
			seen[u] = true
		}
		again := buildRing([]string{"http://c:1", "http://b:1", "http://a:1"}, 64).owners(key)
		for j := range got {
			if got[j] != again[j] {
				t.Fatalf("owner order depends on construction order: %v vs %v", got, again)
			}
		}
	}
}

func TestRingSpreadsKeys(t *testing.T) {
	urls := []string{"http://a:1", "http://b:1", "http://c:1", "http://d:1"}
	r := buildRing(urls, 64)
	counts := map[string]int{}
	const keys = 4096
	for i := 0; i < keys; i++ {
		counts[r.owners(fmt.Sprintf("key-%d", i))[0]]++
	}
	for _, u := range urls {
		// With 64 vnodes the spread is far tighter than 4x, but the
		// test only pins "nobody is starved or hot-spotted".
		if counts[u] < keys/16 || counts[u] > keys/2 {
			t.Fatalf("worker %s owns %d/%d keys — distribution collapsed: %v", u, counts[u], keys, counts)
		}
	}
}

func TestRingMinimalRemapOnMemberLoss(t *testing.T) {
	all := []string{"http://a:1", "http://b:1", "http://c:1", "http://d:1"}
	big := buildRing(all, 64)
	small := buildRing(all[:3], 64) // d removed
	moved := 0
	const keys = 2048
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("key-%d", i)
		before := big.owners(key)[0]
		after := small.owners(key)[0]
		if before == "http://d:1" {
			continue // d's keys must move somewhere
		}
		if before != after {
			moved++
		}
	}
	if moved != 0 {
		t.Fatalf("%d keys not owned by the removed worker changed owner — consistent hashing broken", moved)
	}
}

func TestRingReplicaWalkSkipsOwner(t *testing.T) {
	r := buildRing([]string{"http://a:1", "http://b:1", "http://c:1"}, 32)
	got := r.owners("somekey")
	if len(got) != 3 || got[0] == got[1] {
		t.Fatalf("replica walk broken: %v", got)
	}
}

func TestRingEmpty(t *testing.T) {
	if got := buildRing(nil, 8).owners("k"); got != nil {
		t.Fatalf("empty ring returned owners: %v", got)
	}
}

// TestRingOwnersAllocatesOnlyResult pins owners, which runs on every
// dispatch and every proxied GET, to one allocation: the result slice.
func TestRingOwnersAllocatesOnlyResult(t *testing.T) {
	r := buildRing([]string{"http://a:1", "http://b:1", "http://c:1", "http://d:1"}, 64)
	key := fmt.Sprintf("%064d", 7)
	if n := testing.AllocsPerRun(100, func() { _ = r.owners(key) }); n != 1 {
		t.Errorf("owners allocated %v times per call, want 1", n)
	}
}
