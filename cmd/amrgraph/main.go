// Command amrgraph records the per-driver task graphs (see
// internal/analysis: Record, Goldens) by running each driver on a small
// fixed in-process configuration, checks them with graphlint and emits
// them as text, DOT or JSON, so the graphs can be rendered, diffed and
// committed as goldens.
//
// Modes:
//
//	amrgraph [apps]                  print graphs to stdout (-format)
//	amrgraph -o dir [apps]           write one file per driver to dir
//	amrgraph -update dir [apps]      refresh golden text graphs in dir
//	amrgraph -check dir [apps]       diff against goldens; exit 1 on drift
//
// apps are registered application names (miniamr, hydro); the default is
// every recorded graph. graphlint findings print to stderr.
//
// Exit status: 0 clean, 1 golden mismatch or graph findings, 2 usage or
// recording error.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"

	"miniamr/internal/analysis"
)

func main() {
	format := flag.String("format", "text", "output format: text, dot or json")
	outDir := flag.String("o", "", "write one file per driver into this directory")
	checkDir := flag.String("check", "", "compare text graphs against goldens in this directory")
	updateDir := flag.String("update", "", "write text graphs as goldens into this directory")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: amrgraph [-format text|dot|json] [-o dir | -check dir | -update dir] [apps]\n\napps are application names (default: every recorded graph)\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	ext := map[string]string{"text": ".txt", "dot": ".dot", "json": ".json"}[*format]
	if ext == "" {
		fmt.Fprintf(os.Stderr, "amrgraph: unknown format %q\n", *format)
		os.Exit(2)
	}

	status := 0
	var graphs []*analysis.Graph
	for _, r := range analysis.Goldens() {
		if flag.NArg() > 0 && !slices.Contains(flag.Args(), r.App) {
			continue
		}
		g, findings, err := analysis.Record(r)
		if err != nil {
			fmt.Fprintln(os.Stderr, "amrgraph:", err)
			os.Exit(2)
		}
		for _, f := range findings {
			fmt.Fprintln(os.Stderr, f)
			status = 1
		}
		graphs = append(graphs, g)
	}
	if len(graphs) == 0 {
		fmt.Fprintf(os.Stderr, "amrgraph: no recorded graph belongs to %v\n", flag.Args())
		os.Exit(2)
	}

	dir := *outDir
	switch {
	case *checkDir != "":
		for _, g := range graphs {
			path := filepath.Join(*checkDir, g.Driver+".txt")
			want, err := os.ReadFile(path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "amrgraph: missing golden for driver %s: %v\n", g.Driver, err)
				status = 1
				continue
			}
			if g.Text() != string(want) {
				fmt.Fprintf(os.Stderr, "amrgraph: driver %s diverges from golden %s (run amrgraph -update %s to refresh)\n",
					g.Driver, path, *checkDir)
				status = 1
			}
		}
		os.Exit(status)
	case *updateDir != "":
		dir, ext, *format = *updateDir, ".txt", "text"
	case dir == "":
		for _, g := range graphs {
			fmt.Print(render(g, *format))
		}
		os.Exit(status)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "amrgraph:", err)
		os.Exit(2)
	}
	for _, g := range graphs {
		path := filepath.Join(dir, g.Driver+ext)
		if err := os.WriteFile(path, []byte(render(g, *format)), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "amrgraph:", err)
			os.Exit(2)
		}
		fmt.Println("wrote", path)
	}
	os.Exit(status)
}

func render(g *analysis.Graph, format string) string {
	switch format {
	case "dot":
		return g.DOT()
	case "json":
		return g.JSON()
	default:
		return g.Text()
	}
}
