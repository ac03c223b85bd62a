// Command dstore-lint is the repo's static-analysis multichecker: it
// runs the determinism, event-safety, alloc-free, tablecover and
// spanbalance analyzers from internal/analysis over
// the packages matched by its arguments (default ./...) and exits
// non-zero on any finding.
//
//	dstore-lint ./...
//	dstore-lint -run determinism ./internal/coherence
//	dstore-lint -json ./... | jq .
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"dstore/internal/analysis"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit diagnostics as a JSON array")
	run := flag.String("run", "", "comma-separated analyzer names to run (default all)")
	list := flag.Bool("list", false, "list available analyzers and exit")
	flag.Parse()

	all := []*analysis.Analyzer{analysis.Determinism, analysis.EventSafety, analysis.AllocFree, analysis.Tablecover, analysis.SpanBalance}
	if *list {
		for _, a := range all {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers := all
	if *run != "" {
		want := make(map[string]bool)
		for _, name := range strings.Split(*run, ",") {
			want[strings.TrimSpace(name)] = true
		}
		analyzers = nil
		for _, a := range all {
			if want[a.Name] {
				analyzers = append(analyzers, a)
				delete(want, a.Name)
			}
		}
		for name := range want { //dstore:allow-maprange error listing, order irrelevant
			fmt.Fprintf(os.Stderr, "dstore-lint: unknown analyzer %q\n", name)
			os.Exit(2)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	diags, err := analysis.Run("", patterns, analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dstore-lint: %v\n", err)
		os.Exit(2)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintf(os.Stderr, "dstore-lint: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "dstore-lint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}
