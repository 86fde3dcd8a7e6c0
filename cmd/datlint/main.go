// Command datlint runs the project's custom static-analysis suite over
// the module: ringcmp (no raw comparisons on ring identifiers),
// locksafe (no network calls or re-locking under a node mutex, seen
// through call summaries), simclock (no wall-clock time in
// simulation-facing packages), senderr (no silently dropped transport
// send errors), wirereg (wire-codec registration of transport
// payloads), detorder (no map iteration order escaping into sends or
// traces), hooklock (no obs hooks fired under node locks), goroleak
// (protocol goroutines tied to shutdown), and routever (routing state
// written only by chord's designated mutators). See DESIGN.md §7
// for each rule and its suppression pragma.
//
// Usage:
//
//	datlint [-list] [-analyzer name,...] [-json] [packages]
//
// Packages default to ./... resolved against the current directory.
// -analyzer selects a comma-separated subset of the suite; the
// unused-suppression audit then only judges pragmas naming selected
// analyzers. -json emits a stable machine-readable report on stdout
// for CI artifacts. The exit status is 1 when any finding or stale
// suppression survives, making it usable as a CI gate:
// go run ./cmd/datlint ./...
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/lint"
)

func main() {
	list := flag.Bool("list", false, "list the analyzers and exit")
	sel := flag.String("analyzer", "", "comma-separated analyzer names to run (default: all)")
	asJSON := flag.Bool("json", false, "emit findings and stale suppressions as JSON on stdout")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: datlint [-list] [-analyzer name,...] [-json] [packages]\n\nAnalyzers:\n")
		for _, a := range lint.All {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-10s %s\n", a.Name, a.Doc)
		}
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range lint.All {
			fmt.Printf("%-10s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers := lint.All
	if *sel != "" {
		byName := map[string]*lint.Analyzer{}
		for _, a := range lint.All {
			byName[a.Name] = a
		}
		analyzers = nil
		for _, name := range strings.Split(*sel, ",") {
			name = strings.TrimSpace(name)
			a, ok := byName[name]
			if !ok {
				fmt.Fprintf(os.Stderr, "datlint: unknown analyzer %q (see -list)\n", name)
				os.Exit(2)
			}
			analyzers = append(analyzers, a)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lint.LoadModule(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "datlint:", err)
		os.Exit(2)
	}
	res := lint.RunAll(pkgs, analyzers)
	if *asJSON {
		if err := lint.EncodeJSON(os.Stdout, res); err != nil {
			fmt.Fprintln(os.Stderr, "datlint:", err)
			os.Exit(2)
		}
	} else {
		for _, d := range res.Diagnostics {
			fmt.Println(d)
		}
		for _, s := range res.Stale {
			fmt.Println(s)
		}
	}
	if n := len(res.Diagnostics) + len(res.Stale); n > 0 {
		fmt.Fprintf(os.Stderr, "datlint: %d finding(s)\n", n)
		os.Exit(1)
	}
}
