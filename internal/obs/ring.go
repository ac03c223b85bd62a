package obs

// Ring is a fixed-capacity record buffer shared by both tracers: the
// Observer's sim-tick events and dtrace's wall-clock spans. It appends
// until full, then overwrites the oldest entry, so recording never
// allocates after NewRing. It counts every entry recorded; the dropped
// count is the overwritten ones. A Ring is not safe for concurrent use.
type Ring[T any] struct {
	buf []T
	// head is the next slot to overwrite once full (= the oldest entry).
	head     int
	recorded uint64
}

// NewRing returns an empty ring that retains the most recent capacity
// entries; capacity must be positive.
func NewRing[T any](capacity int) Ring[T] {
	return Ring[T]{buf: make([]T, 0, capacity)}
}

// Add records v, overwriting the oldest entry when the ring is full.
func (r *Ring[T]) Add(v T) {
	r.recorded++
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, v)
		return
	}
	r.buf[r.head] = v
	if r.head++; r.head == len(r.buf) {
		r.head = 0
	}
}

// Recorded returns how many entries were ever added.
func (r *Ring[T]) Recorded() uint64 { return r.recorded }

// Dropped returns how many entries were overwritten.
func (r *Ring[T]) Dropped() uint64 { return r.recorded - uint64(len(r.buf)) }

// Snapshot returns a copy of the retained entries in chronological
// order (oldest first), or nil when the ring is empty.
func (r *Ring[T]) Snapshot() []T {
	if len(r.buf) == 0 {
		return nil
	}
	out := make([]T, 0, len(r.buf))
	out = append(out, r.buf[r.head:]...)
	return append(out, r.buf[:r.head]...)
}
