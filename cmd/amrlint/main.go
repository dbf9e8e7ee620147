// Command amrlint runs the repo-specific static-analysis suite: leaselint,
// reqlint, deplint, collectivelint, conclint and determlint (see
// internal/analysis). Patterns are directories or dir/... trees; the
// default ./... covers the module. The driver task graphs are recorded
// and checked by cmd/amrgraph (graphlint) and cmd/amrperf (perflint).
//
// -json switches the findings to one JSON record per line (file, line,
// id, analyzer, severity, message); the id is the stable analyzer/rule
// slug, so suppressions and dashboards survive message rewording.
//
// Exit status: 0 clean, 1 findings, 2 usage or load error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/token"
	"os"

	"miniamr/internal/analysis"
)

// jsonFinding is the stable machine-readable record shape.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	ID       string `json:"id"`
	Analyzer string `json:"analyzer"`
	Severity string `json:"severity"`
	Message  string `json:"message"`
}

func main() {
	tests := flag.Bool("tests", false, "also analyze _test.go files")
	list := flag.Bool("list", false, "list the analyzers and exit")
	jsonOut := flag.Bool("json", false, "emit findings as JSON records, one per line")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: amrlint [-tests] [-json] [packages]\n\npackages are directories or dir/... trees (default ./...)\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range analysis.All() {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	fset := token.NewFileSet()
	pkgs, err := analysis.Load(fset, patterns, *tests)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	findings := analysis.Run(pkgs, analysis.All())
	enc := json.NewEncoder(os.Stdout)
	for _, f := range findings {
		if *jsonOut {
			sev := f.Severity
			if sev == "" {
				sev = "error"
			}
			enc.Encode(jsonFinding{ //nolint:errcheck // stdout encode of plain strings
				File:     f.Pos.Filename,
				Line:     f.Pos.Line,
				ID:       f.ID(),
				Analyzer: f.Analyzer,
				Severity: sev,
				Message:  f.Message,
			})
			continue
		}
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "amrlint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}
