package obs

import (
	"fmt"
	"io"
	"strconv"
)

// Metric is one row of a daemon's metric table: a name, its Prometheus
// type, and the value read for one scrape. Histogram rows carry the
// histogram instead of a value. A daemon builds its whole table as one
// slice per scrape, and WriteProm and WriteStats render that same
// slice, so /metrics and /v1/stats cannot disagree on a name, a type
// or the order.
type Metric struct {
	Name, Kind string
	Value      uint64
	Hist       *Histogram
}

// Counter returns a counter row.
func Counter(name string, v uint64) Metric { return Metric{Name: name, Kind: "counter", Value: v} }

// Gauge returns a gauge row.
func Gauge(name string, v uint64) Metric { return Metric{Name: name, Kind: "gauge", Value: v} }

// HistogramMetric returns a histogram row. The histogram should be a
// private copy, since rendering reads it without a lock.
func HistogramMetric(name string, h *Histogram) Metric {
	return Metric{Name: name, Kind: "histogram", Hist: h}
}

// WriteProm renders rows in the Prometheus text exposition format:
// one sample per counter and gauge, the full bucket series plus _sum
// and _count per histogram.
func WriteProm(w io.Writer, rows []Metric) {
	for _, m := range rows {
		if m.Kind == "histogram" {
			m.Hist.WriteProm(w, m.Name)
			continue
		}
		fmt.Fprintf(w, "# TYPE %s %s\n%s %d\n", m.Name, m.Kind, m.Name, m.Value)
	}
}

// WriteStats renders rows as one JSON object with the keys in row
// order (the /v1/stats view). A histogram contributes its sample
// count; the buckets are a /metrics-only rendering.
func WriteStats(w io.Writer, rows []Metric) {
	b := []byte{'{'}
	for i, m := range rows {
		if i > 0 {
			b = append(b, ',')
		}
		v := m.Value
		if m.Kind == "histogram" {
			v = m.Hist.Count()
		}
		b = strconv.AppendQuote(b, m.Name)
		b = append(b, ':')
		b = strconv.AppendUint(b, v, 10)
	}
	b = append(b, '}')
	_, _ = w.Write(b)
}
