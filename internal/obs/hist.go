package obs

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"strings"
)

// Histogram is a log2-bucketed latency histogram: observation v lands
// in bucket bits.Len64(v), so bucket 0 holds only zero, bucket i holds
// [2^(i-1), 2^i). Power-of-two buckets cover the full tick range in 65
// fixed counters with no configuration, and the geometric resolution
// matches what the latency distributions actually need: telling a
// 20-tick L1 hit from a 600-tick DRAM miss, not a 601-tick one.
//
// All methods are safe on a nil *Histogram (no-ops / zeros), so callers
// can use Observer.Hist(id) unconditionally.
type Histogram struct {
	name    string
	buckets [65]uint64
	count   uint64
	sum     uint64
	min     uint64
	max     uint64
}

// NewHistogram returns an empty histogram with the given name.
func NewHistogram(name string) *Histogram {
	return &Histogram{name: name, min: math.MaxUint64}
}

// Name returns the histogram's name (nil-safe).
func (h *Histogram) Name() string {
	if h == nil {
		return ""
	}
	return h.name
}

// Observe records one value (nil-safe).
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	h.buckets[bits.Len64(v)]++
	h.count++
	h.sum += v
	// The first observation seeds min unconditionally: a zero-value
	// Histogram (not built by NewHistogram) starts with min == 0, and
	// `v < 0` would never replace it.
	if h.count == 1 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of observations (nil-safe).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Sum returns the sum of all observations (nil-safe).
func (h *Histogram) Sum() uint64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// Min returns the smallest observation, or 0 when empty (nil-safe).
func (h *Histogram) Min() uint64 {
	if h == nil || h.count == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest observation (nil-safe).
func (h *Histogram) Max() uint64 {
	if h == nil {
		return 0
	}
	return h.max
}

// Mean returns the arithmetic mean, or 0 when empty (nil-safe).
func (h *Histogram) Mean() float64 {
	if h == nil || h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Bucket is one non-empty histogram bucket covering [Lo, Hi].
type Bucket struct {
	Lo, Hi uint64
	Count  uint64
}

// bucketBounds returns the inclusive [lo, hi] range of bucket i.
func bucketBounds(i int) (uint64, uint64) {
	switch {
	case i == 0:
		return 0, 0
	case i >= 64:
		return 1 << 63, math.MaxUint64
	default:
		return 1 << (i - 1), 1<<i - 1
	}
}

// Buckets returns the non-empty buckets in ascending range order
// (nil-safe).
func (h *Histogram) Buckets() []Bucket {
	if h == nil {
		return nil
	}
	var out []Bucket
	for i, c := range h.buckets {
		if c == 0 {
			continue
		}
		lo, hi := bucketBounds(i)
		out = append(out, Bucket{Lo: lo, Hi: hi, Count: c})
	}
	return out
}

// Clone returns an independent copy of h (nil-safe), for rendering
// outside the lock that guards h.
func (h *Histogram) Clone() *Histogram {
	if h == nil {
		return nil
	}
	c := *h
	return &c
}

// Merge folds other into h (nil-safe on both sides). Used by the serve
// daemon to aggregate per-run histograms into process totals.
func (h *Histogram) Merge(other *Histogram) {
	if h == nil || other == nil || other.count == 0 {
		return
	}
	// An empty destination adopts other's min outright: a zero-value
	// Histogram starts with min == 0 (not the NewHistogram sentinel),
	// so the comparison alone would pin min at 0 forever.
	wasEmpty := h.count == 0
	for i, c := range other.buckets {
		h.buckets[i] += c
	}
	h.count += other.count
	h.sum += other.sum
	if wasEmpty || other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
}

// WriteProm renders the histogram as one Prometheus histogram family:
// cumulative le-labelled buckets (upper bounds from the log2 bucket
// ranges), the +Inf catch-all, then _sum and _count (nil-safe — a nil
// or empty histogram renders the empty family: +Inf 0, _sum 0,
// _count 0). The overflow bucket (values ≥ 2^63) has no finite upper
// bound, so its observations appear only under +Inf rather than as a
// spurious le="18446744073709551615" series.
func (h *Histogram) WriteProm(w io.Writer, name string) {
	fmt.Fprintf(w, "# TYPE %s histogram\n", name)
	var cum uint64
	for _, bk := range h.Buckets() {
		if bk.Hi == math.MaxUint64 {
			break // overflow bucket: counted by +Inf below
		}
		cum += bk.Count
		fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", name, bk.Hi, cum)
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, h.Count())
	fmt.Fprintf(w, "%s_sum %d\n", name, h.Sum())
	fmt.Fprintf(w, "%s_count %d\n", name, h.Count())
}

// WriteText renders the histogram as an aligned text table with scaled
// count bars, in ascending bucket order (nil-safe).
func (h *Histogram) WriteText(w io.Writer) {
	if h == nil {
		return
	}
	fmt.Fprintf(w, "%s: count=%d mean=%.1f min=%d max=%d\n",
		h.name, h.Count(), h.Mean(), h.Min(), h.Max())
	bs := h.Buckets()
	if len(bs) == 0 {
		return
	}
	var peak uint64
	for _, b := range bs {
		if b.Count > peak {
			peak = b.Count
		}
	}
	const barWidth = 40
	for _, b := range bs {
		n := int(b.Count * barWidth / peak)
		fmt.Fprintf(w, "  [%10d, %10d] %10d %s\n", b.Lo, b.Hi, b.Count, strings.Repeat("#", n))
	}
}
