package fleet

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
)

// ring is a consistent-hash ring over worker base URLs. Each worker
// contributes vnodes points (hash of "url#i"), and a job ID owns the
// first point clockwise from its own hash. Adding or removing one
// worker therefore remaps only ~1/N of the key space — which is what
// keeps each worker's content-addressed caches hot as the fleet
// changes shape.
//
// The ring is immutable; the registry rebuilds it on membership
// changes and swaps it atomically.
type ring struct {
	points []ringPoint
	urls   []string // distinct members, sorted (for reporting)
}

type ringPoint struct {
	h   uint64
	url string
}

// hash64 hashes s through a stack buffer: a plain []byte(s) of a
// 64-character job ID would be a heap allocation per lookup.
func hash64(s string) uint64 {
	var buf [64]byte
	sum := sha256.Sum256(append(buf[:0], s...))
	return binary.LittleEndian.Uint64(sum[:8])
}

// buildRing constructs the ring for the given worker URLs.
func buildRing(urls []string, vnodes int) *ring {
	if vnodes < 1 {
		vnodes = 1
	}
	uniq := make(map[string]bool, len(urls))
	r := &ring{}
	for _, u := range urls {
		if u == "" || uniq[u] {
			continue
		}
		uniq[u] = true
		r.urls = append(r.urls, u)
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, ringPoint{h: hash64(fmt.Sprintf("%s#%d", u, i)), url: u})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].h != r.points[j].h {
			return r.points[i].h < r.points[j].h
		}
		return r.points[i].url < r.points[j].url
	})
	sort.Strings(r.urls)
	return r
}

// owners returns every worker for key, in replica order: the key's
// owner first, then each successive distinct worker clockwise around
// the ring. A worker is found in the result by scanning it, which is
// as long as the worker list, so the result is the only allocation.
func (r *ring) owners(key string) []string {
	if len(r.points) == 0 {
		return nil
	}
	n := len(r.urls)
	h := hash64(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].h >= h })
	out := make([]string, 0, n)
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		if u := r.points[(start+i)%len(r.points)].url; !slices.Contains(out, u) {
			out = append(out, u)
		}
	}
	return out
}
