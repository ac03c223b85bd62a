package stats

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestCounterZeroValueReady(t *testing.T) {
	var c Counter
	if c.Value() != 0 {
		t.Fatal("zero counter not zero")
	}
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	c.Reset()
	if c.Value() != 0 {
		t.Error("reset did not zero counter")
	}
}

func TestSetCreatesOnFirstUse(t *testing.T) {
	s := NewSet()
	s.Counter("hits").Add(3)
	s.Counter("hits").Add(2)
	if s.Get("hits") != 5 {
		t.Errorf("hits = %d, want 5", s.Get("hits"))
	}
	if s.Get("never") != 0 {
		t.Error("unknown counter not zero")
	}
}

func TestSetPreservesCreationOrder(t *testing.T) {
	s := NewSet()
	for _, n := range []string{"z", "a", "m"} {
		s.Counter(n)
	}
	names := s.Names()
	if len(names) != 3 || names[0] != "z" || names[1] != "a" || names[2] != "m" {
		t.Errorf("Names() = %v, want [z a m]", names)
	}
}

func TestSetDumpContainsAll(t *testing.T) {
	s := NewSet()
	s.Counter("alpha").Add(1)
	s.Counter("beta").Add(2)
	d := s.Dump()
	if !strings.Contains(d, "alpha") || !strings.Contains(d, "beta") {
		t.Errorf("dump missing counters: %q", d)
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
