// Package obstest pins a daemon's metric exposition in tests. Layout
// reduces one /metrics scrape and one /v1/stats scrape to the parts a
// refactor must not move, and Golden compares that text against a
// committed file.
package obstest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
)

// Layout renders a scrape pair as golden text: every /metrics line in
// order, then every /v1/stats key in order with its value. The
// histograms named in wallClock observe host time, so their finite
// buckets are dropped and their _sum is masked; their +Inf bucket and
// _count stay exact, since both count observations.
func Layout(metrics, stats []byte, wallClock ...string) (string, error) {
	var b strings.Builder
	b.WriteString("# GET /metrics\n")
	for _, line := range strings.Split(strings.TrimSpace(string(metrics)), "\n") {
		if !strings.HasPrefix(line, "#") {
			name := line[:strings.IndexAny(line, "{ ")]
			for _, h := range wallClock {
				switch {
				case name == h+"_bucket" && !strings.Contains(line, `le="+Inf"`):
					line = ""
				case name == h+"_sum":
					line = line[:strings.LastIndexByte(line, ' ')] + " (wall clock)"
				}
			}
		}
		if line != "" {
			b.WriteString(line + "\n")
		}
	}

	b.WriteString("# GET /v1/stats\n")
	dec := json.NewDecoder(bytes.NewReader(stats))
	dec.UseNumber()
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return "", fmt.Errorf("/v1/stats is not a JSON object: %s", stats)
	}
	for dec.More() {
		key, err := dec.Token()
		if err != nil {
			return "", err
		}
		var v json.Number
		if err := dec.Decode(&v); err != nil {
			return "", fmt.Errorf("/v1/stats key %v: %w", key, err)
		}
		fmt.Fprintf(&b, "%s %s\n", key, v)
	}
	return b.String(), nil
}

// Golden compares got with the file at path, naming the first line
// that differs. With update set it rewrites the file instead.
func Golden(t testing.TB, path, got string, update bool) {
	t.Helper()
	if update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	if got == string(want) {
		return
	}
	g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; ; i++ {
		if i >= len(g) || i >= len(w) || g[i] != w[i] {
			t.Fatalf("%s: line %d: got %q, want %q", path, i+1, at(g, i), at(w, i))
		}
	}
}

func at(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "(end of output)"
}
