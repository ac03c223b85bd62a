// Package stats provides the counters and summary math used to report
// simulation results, plus fixed-width table rendering for the
// paper-figure regeneration harness.
package stats

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
)

// Counter is a named monotonically increasing count. The zero value is
// ready to use.
type Counter struct {
	n uint64
}

// Add increments the counter by d.
func (c *Counter) Add(d uint64) { c.n += d }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.n++ }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n }

// Reset zeroes the counter.
func (c *Counter) Reset() { c.n = 0 }

// Set is an ordered collection of named counters. Components expose one
// so the harness can dump everything uniformly.
type Set struct {
	names    []string
	counters map[string]*Counter
}

// NewSet returns an empty counter set.
func NewSet() *Set {
	return &Set{counters: make(map[string]*Counter)}
}

// Counter returns the counter with the given name, creating it on first
// use. Creation order is preserved for dumping.
func (s *Set) Counter(name string) *Counter {
	if c, ok := s.counters[name]; ok {
		return c
	}
	c := &Counter{}
	s.counters[name] = c
	s.names = append(s.names, name)
	return c
}

// Get returns the value of a named counter, or zero if it was never
// created.
func (s *Set) Get(name string) uint64 {
	if c, ok := s.counters[name]; ok {
		return c.Value()
	}
	return 0
}

// Names returns the counter names in creation order.
func (s *Set) Names() []string {
	out := make([]string, len(s.names))
	copy(out, s.names)
	return out
}

// Dump renders "name value" lines in creation order.
func (s *Set) Dump() string {
	var b strings.Builder
	for _, n := range s.names {
		fmt.Fprintf(&b, "%-32s %d\n", n, s.counters[n].Value())
	}
	return b.String()
}

// Ratio returns a/b as a float, or 0 when b is zero. Miss rates and
// speedups all come through here so a zero-access cache reads as a 0%
// miss rate rather than NaN (matching how the paper plots zero bars for
// GA, LU and BS in Fig. 5).
func Ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// GeoMean returns the geometric mean of vs. Non-positive entries are
// rejected with an error since a geometric mean is undefined for them.
func GeoMean(vs []float64) (float64, error) {
	if len(vs) == 0 {
		return 0, fmt.Errorf("stats: geometric mean of empty slice")
	}
	sum := 0.0
	for _, v := range vs {
		if v <= 0 {
			return 0, fmt.Errorf("stats: geometric mean of non-positive value %v", v)
		}
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(vs))), nil
}

// GeoMeanNonZero returns the geometric mean of the strictly positive
// entries of vs, skipping zeros, mirroring the paper's "geometric means
// of all non-zero speedups" in Fig. 4. ok is false if every entry was
// zero or negative.
func GeoMeanNonZero(vs []float64) (mean float64, ok bool) {
	var pos []float64
	for _, v := range vs {
		if v > 0 {
			pos = append(pos, v)
		}
	}
	if len(pos) == 0 {
		return 0, false
	}
	m, err := GeoMean(pos)
	if err != nil {
		return 0, false
	}
	return m, true
}

// Percent formats a fraction as a percentage with one decimal, e.g.
// 0.078 → "7.8%".
func Percent(f float64) string {
	return fmt.Sprintf("%.1f%%", f*100)
}

// Table renders aligned fixed-width text tables for the experiment
// harness output.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends a row; cells beyond the header width are dropped and
// short rows are padded with empty cells.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.header))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.rows = append(t.rows, row)
}

// SortRows sorts rows lexicographically by the given column.
func (t *Table) SortRows(col int) {
	if col < 0 || col >= len(t.header) {
		return
	}
	sort.SliceStable(t.rows, func(i, j int) bool { return t.rows[i][col] < t.rows[j][col] })
}

// NumRows returns the number of data rows.
func (t *Table) NumRows() int { return len(t.rows) }

// CSV renders the table as comma-separated values with a header row.
// Cells containing commas or quotes are quoted.
func (t *Table) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString(",")
			}
			if strings.ContainsAny(c, ",\"\n") {
				b.WriteString(`"` + strings.ReplaceAll(c, `"`, `""`) + `"`)
			} else {
				b.WriteString(c)
			}
		}
		b.WriteString("\n")
	}
	writeRow(t.header)
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

// MarshalJSON encodes the table as {"header": [...], "rows": [[...]]}.
func (t *Table) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Header []string   `json:"header"`
		Rows   [][]string `json:"rows"`
	}{Header: t.header, Rows: t.rows})
}

// String renders the table with a separator under the header.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	writeRow(t.header)
	total := 0
	for _, w := range widths {
		total += w
	}
	b.WriteString(strings.Repeat("-", total+2*(len(widths)-1)))
	b.WriteString("\n")
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}
