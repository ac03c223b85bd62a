// Package stats provides the named-counter helpers and summary math
// used to report simulation results, plus fixed-width table rendering
// for the paper-figure regeneration harness.
package stats

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"

	"dstore/internal/snap"
)

// Row names one field of a layer's counter struct. Each layer lists
// its rows once, in a Rows method on that struct; everything that
// handles counters by name (dumps, snapshots, the benchmark's reads)
// goes through that list, while the simulator itself increments and
// reads the fields.
type Row struct {
	Name string
	N    *uint64
}

// Rows is one layer's counter list, in the order the layer dumps and
// snapshots its counters.
type Rows []Row

// Get returns the value of the named counter. It panics on a name the
// list does not declare, so a misspelt read fails at once instead of
// reporting zero forever.
func (rs Rows) Get(name string) uint64 {
	for _, r := range rs {
		if r.Name == name {
			return *r.N
		}
	}
	panic(fmt.Sprintf("stats: no counter %q in %s", name, rs.names()))
}

// Dump renders "name value" lines in order.
func (rs Rows) Dump() string {
	var b strings.Builder
	for _, r := range rs {
		fmt.Fprintf(&b, "%-32s %d\n", r.Name, *r.N)
	}
	return b.String()
}

// SnapshotTo serialises every counter, name and value, in order.
func (rs Rows) SnapshotTo(w *snap.Writer) {
	w.Tag("stats")
	w.U32(uint32(len(rs)))
	for _, r := range rs {
		w.String(r.Name)
		w.U64(*r.N)
	}
}

// RestoreFrom overwrites the counters from a snapshot. The section must
// list exactly these counters in this order: a different count or any
// other name fails the reader, because restoring a snapshot of another
// counter layout would leave some counters at their old values.
func (rs Rows) RestoreFrom(r *snap.Reader) {
	r.Tag("stats")
	if n := r.U32(); r.Err() == nil && n != uint32(len(rs)) {
		r.Failf("stats: snapshot has %d counters, want %d (%s)", n, len(rs), rs.names())
		return
	}
	for _, row := range rs {
		name, v := r.String(), r.U64()
		if r.Err() != nil {
			return
		}
		if name != row.Name {
			r.Failf("stats: snapshot counter %q where %q is declared", name, row.Name)
			return
		}
		*row.N = v
	}
}

func (rs Rows) names() string {
	ns := make([]string, len(rs))
	for i, r := range rs {
		ns[i] = r.Name
	}
	return strings.Join(ns, ", ")
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
