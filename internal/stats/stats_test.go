package stats

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"dstore/internal/snap"
)

// testCounters is a layer counter struct in miniature.
type testCounters struct{ Z, A, M uint64 }

func (c *testCounters) Rows() Rows {
	return Rows{{Name: "z", N: &c.Z}, {Name: "a", N: &c.A}, {Name: "m", N: &c.M}}
}

func TestRowsGetReadsFields(t *testing.T) {
	c := testCounters{Z: 1, A: 2, M: 3}
	c.A += 5
	if got := c.Rows().Get("a"); got != 7 {
		t.Errorf("Get(a) = %d, want 7", got)
	}
}

func TestRowsGetUndeclaredPanics(t *testing.T) {
	var c testCounters
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), `"hitz"`) {
			t.Errorf("Get of an undeclared name: recovered %v, want a panic naming it", r)
		}
	}()
	c.Rows().Get("hitz")
}

func TestRowsDumpOrderAndAlignment(t *testing.T) {
	c := testCounters{Z: 1, A: 22, M: 333}
	want := fmt.Sprintf("%-32s 1\n%-32s 22\n%-32s 333\n", "z", "a", "m")
	if got := c.Rows().Dump(); got != want {
		t.Errorf("Dump() = %q, want %q", got, want)
	}
}

// TestSetPreservesCreationOrder checks that Rows, which replaced the
// string-keyed counter set, keeps its declared order rather than
// sorting names: the dump lists z, a, m as declared.
func TestSetPreservesCreationOrder(t *testing.T) {
	var c testCounters
	rows := c.Rows()
	var names []string
	for _, r := range rows {
		names = append(names, r.Name)
	}
	if len(names) != 3 || names[0] != "z" || names[1] != "a" || names[2] != "m" {
		t.Errorf("row names = %v, want [z a m]", names)
	}
	lines := strings.Split(strings.TrimSuffix(rows.Dump(), "\n"), "\n")
	for i, n := range names {
		if i >= len(lines) || !strings.HasPrefix(lines[i], fmt.Sprintf("%-32s ", n)) {
			t.Errorf("Dump() lines = %q, want counter %q on line %d", lines, n, i)
		}
	}
}

// TestSetDumpContainsAll checks that the dump of a layer's Rows names
// every counter with its value.
func TestSetDumpContainsAll(t *testing.T) {
	c := testCounters{Z: 1, A: 2, M: 3}
	d := c.Rows().Dump()
	for _, want := range []string{"z", "a", "m"} {
		if !strings.Contains(d, want) {
			t.Errorf("dump missing counter %q: %q", want, d)
		}
	}
	for _, r := range c.Rows() {
		if !strings.Contains(d, fmt.Sprintf("%-32s %d\n", r.Name, *r.N)) {
			t.Errorf("dump missing %s = %d: %q", r.Name, *r.N, d)
		}
	}
}

func TestRowsSnapshotRoundTrip(t *testing.T) {
	src := testCounters{Z: 1, A: 2, M: 3}
	var w snap.Writer
	src.Rows().SnapshotTo(&w)
	var dst testCounters
	r := snap.NewReader(w.Bytes())
	dst.Rows().RestoreFrom(r)
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	if dst != src {
		t.Errorf("restored %+v, want %+v", dst, src)
	}
}

// TestRowsRestoreStrict checks that a snapshot section whose counter
// count or names differ from the declared rows fails the reader rather
// than restoring what it can.
func TestRowsRestoreStrict(t *testing.T) {
	write := func(names ...string) []byte {
		var w snap.Writer
		w.Tag("stats")
		w.U32(uint32(len(names)))
		for i, n := range names {
			w.String(n)
			w.U64(uint64(i + 1))
		}
		return w.Bytes()
	}
	for _, tc := range []struct {
		name  string
		names []string
		want  string
	}{
		{"renamed", []string{"z", "b", "m"}, `snapshot counter "b" where "a" is declared`},
		{"reordered", []string{"a", "z", "m"}, `snapshot counter "a" where "z" is declared`},
		{"extra", []string{"z", "a", "m", "q"}, "snapshot has 4 counters, want 3"},
		{"missing", []string{"z", "a"}, "snapshot has 2 counters, want 3"},
	} {
		var c testCounters
		r := snap.NewReader(write(tc.names...))
		c.Rows().RestoreFrom(r)
		if err := r.Err(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: restore error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

func TestRatio(t *testing.T) {
	if Ratio(1, 2) != 0.5 {
		t.Error("Ratio(1,2) != 0.5")
	}
	if Ratio(5, 0) != 0 {
		t.Error("Ratio with zero denominator should be 0")
	}
	if Ratio(0, 10) != 0 {
		t.Error("Ratio(0,10) != 0")
	}
}

func TestGeoMeanBasics(t *testing.T) {
	m, err := GeoMean([]float64{2, 8})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m-4) > 1e-12 {
		t.Errorf("GeoMean(2,8) = %v, want 4", m)
	}
	if _, err := GeoMean(nil); err == nil {
		t.Error("GeoMean of empty slice did not error")
	}
	if _, err := GeoMean([]float64{1, 0}); err == nil {
		t.Error("GeoMean with zero did not error")
	}
	if _, err := GeoMean([]float64{-1}); err == nil {
		t.Error("GeoMean with negative did not error")
	}
}

func TestGeoMeanNonZeroSkipsZeros(t *testing.T) {
	m, ok := GeoMeanNonZero([]float64{0, 2, 0, 8, 0})
	if !ok {
		t.Fatal("GeoMeanNonZero reported no positive entries")
	}
	if math.Abs(m-4) > 1e-12 {
		t.Errorf("GeoMeanNonZero = %v, want 4", m)
	}
	if _, ok := GeoMeanNonZero([]float64{0, 0}); ok {
		t.Error("all-zero slice reported ok")
	}
}

// Property: the geometric mean lies between min and max of its inputs.
func TestPropertyGeoMeanBounds(t *testing.T) {
	f := func(raw []uint16) bool {
		var vs []float64
		for _, r := range raw {
			vs = append(vs, float64(r)+1) // strictly positive
		}
		if len(vs) == 0 {
			return true
		}
		m, err := GeoMean(vs)
		if err != nil {
			return false
		}
		lo, hi := vs[0], vs[0]
		for _, v := range vs {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		const eps = 1e-9
		return m >= lo-eps && m <= hi+eps
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPercent(t *testing.T) {
	if Percent(0.078) != "7.8%" {
		t.Errorf("Percent(0.078) = %q", Percent(0.078))
	}
	if Percent(0) != "0.0%" {
		t.Errorf("Percent(0) = %q", Percent(0))
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Name", "Value")
	tb.AddRow("alpha", "1")
	tb.AddRow("b", "22")
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table has %d lines, want 4:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "Name") {
		t.Errorf("header line %q", lines[0])
	}
	if !strings.Contains(lines[2], "alpha") {
		t.Errorf("row line %q", lines[2])
	}
}

func TestTableRowPadding(t *testing.T) {
	tb := NewTable("A", "B", "C")
	tb.AddRow("only")
	tb.AddRow("x", "y", "z", "dropped")
	if tb.NumRows() != 2 {
		t.Fatalf("NumRows = %d", tb.NumRows())
	}
	out := tb.String()
	if strings.Contains(out, "dropped") {
		t.Error("overlong row cell not dropped")
	}
}

func TestTableSortRows(t *testing.T) {
	tb := NewTable("K")
	tb.AddRow("c")
	tb.AddRow("a")
	tb.AddRow("b")
	tb.SortRows(0)
	out := tb.String()
	ai, bi, ci := strings.Index(out, "a"), strings.Index(out, "b"), strings.Index(out, "c")
	if !(ai < bi && bi < ci) {
		t.Errorf("rows not sorted:\n%s", out)
	}
	tb.SortRows(99) // out of range: must not panic
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("Name", "Value")
	tb.AddRow("plain", "1")
	tb.AddRow("with,comma", `with"quote`)
	csv := tb.CSV()
	lines := strings.Split(strings.TrimRight(csv, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV has %d lines:\n%s", len(lines), csv)
	}
	if lines[0] != "Name,Value" {
		t.Errorf("header %q", lines[0])
	}
	if !strings.Contains(lines[2], `"with,comma"`) || !strings.Contains(lines[2], `"with""quote"`) {
		t.Errorf("quoting wrong: %q", lines[2])
	}
}

func TestTableJSON(t *testing.T) {
	tb := NewTable("A", "B")
	tb.AddRow("x", "y")
	out, err := json.Marshal(tb)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Header []string   `json:"header"`
		Rows   [][]string `json:"rows"`
	}
	if err := json.Unmarshal(out, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Header) != 2 || len(doc.Rows) != 1 || doc.Rows[0][0] != "x" {
		t.Errorf("round trip: %+v", doc)
	}
}
