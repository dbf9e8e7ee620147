// Command amrperf evaluates the recorded driver graphs (see
// internal/analysis: Record, Goldens, and cmd/amrgraph) into performance
// profiles: critical-path length and concurrency width in the work-span
// model, the resulting speedup bound, and the point-to-point and
// collective operations per pass, at each graph's committed worker counts
// (a loop graph is the MPI-only rank at one worker and the fork-join rank
// at sixteen). perflint's findings on the graphs print to stderr. It is the
// cost-model half of perflint, exposed so the profiles can be rendered,
// diffed and committed as goldens.
//
// Modes:
//
//	amrperf                            print profiles to stdout (-format)
//	amrperf -o dir                     write one file per profile to dir
//	amrperf -update dir                refresh golden text profiles in dir
//	amrperf -check dir                 diff against goldens; exit 1 on drift
//	amrperf -escape [packages]         also audit //amr:hot allocation pins
//	                                   (compiles the packages with -gcflags=-m)
//
// Exit status: 0 clean, 1 golden mismatch or findings, 2 usage or
// recording error.
package main

import (
	"flag"
	"fmt"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"miniamr/internal/analysis"
)

func main() {
	format := flag.String("format", "text", "output format: text or json")
	outDir := flag.String("o", "", "write one file per profile into this directory")
	checkDir := flag.String("check", "", "compare text profiles against goldens in this directory")
	updateDir := flag.String("update", "", "write text profiles as goldens into this directory")
	escape := flag.Bool("escape", false, "audit //amr:hot allocation budgets of the packages against the compiler's escape analysis")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: amrperf [-format text|json] [-escape] [-o dir | -check dir | -update dir] [packages]\n\npackages, for -escape, are directories or dir/... trees (default ./...)\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	ext := map[string]string{"text": ".txt", "json": ".json"}[*format]
	if ext == "" {
		fmt.Fprintf(os.Stderr, "amrperf: unknown format %q\n", *format)
		os.Exit(2)
	}

	status := 0
	var profiles []*analysis.Profile
	for _, r := range analysis.Goldens() {
		g, _, err := analysis.Record(r) // graph findings are amrgraph's
		if err != nil {
			fmt.Fprintln(os.Stderr, "amrperf:", err)
			os.Exit(2)
		}
		for _, f := range analysis.PerfLint(g) {
			fmt.Fprintln(os.Stderr, f)
			status = 1
		}
		for _, w := range r.Profiles {
			p := analysis.ProfileGraph(g, w)
			p.Name = analysis.ProfileName(g.Driver, w, len(r.Profiles) > 1)
			profiles = append(profiles, p)
		}
	}

	if *escape {
		patterns := flag.Args()
		if len(patterns) == 0 {
			patterns = []string{"./..."}
		}
		fset := token.NewFileSet()
		pkgs, err := analysis.Load(fset, patterns, false)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if !runEscapeAudit(pkgs, patterns) {
			status = 1
		}
	}

	dir := *outDir
	switch {
	case *checkDir != "":
		for _, p := range profiles {
			path := filepath.Join(*checkDir, p.Name+".txt")
			want, err := os.ReadFile(path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "amrperf: missing golden for profile %s: %v\n", p.Name, err)
				status = 1
				continue
			}
			if p.Text() != string(want) {
				fmt.Fprintf(os.Stderr, "amrperf: profile %s diverges from golden %s (run amrperf -update %s to refresh)\n",
					p.Name, path, *checkDir)
				status = 1
			}
		}
		os.Exit(status)
	case *updateDir != "":
		dir, ext, *format = *updateDir, ".txt", "text"
	case dir == "":
		if *format == "json" {
			fmt.Print(renderAll(profiles))
		} else {
			for i, p := range profiles {
				if i > 0 {
					fmt.Println()
				}
				fmt.Print(p.Text())
			}
		}
		os.Exit(status)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "amrperf:", err)
		os.Exit(2)
	}
	for _, p := range profiles {
		path := filepath.Join(dir, p.Name+ext)
		if err := os.WriteFile(path, []byte(render(p, *format)), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "amrperf:", err)
			os.Exit(2)
		}
		fmt.Println("wrote", path)
	}
	os.Exit(status)
}

// runEscapeAudit checks every //amr:hot budget in the loaded packages
// against the compiler's proved escape sites. It reports true when all
// pins hold.
func runEscapeAudit(pkgs []*analysis.Package, patterns []string) bool {
	hots, malformed := analysis.CollectHotFuncs(pkgs)
	for _, f := range malformed {
		fmt.Fprintln(os.Stderr, f)
	}
	ok := len(malformed) == 0
	if len(hots) == 0 {
		return ok
	}
	args := append([]string{"build", "-gcflags=-m"}, patterns...)
	cmd := exec.Command("go", args...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		fmt.Fprintf(os.Stderr, "amrperf: go build -gcflags=-m: %v\n%s", err, out)
		return false
	}
	for _, f := range analysis.CheckEscapes(hots, analysis.ParseEscapes(string(out))) {
		fmt.Fprintln(os.Stderr, f)
		if f.Severity == "error" {
			ok = false
		}
	}
	return ok
}

func render(p *analysis.Profile, format string) string {
	if format == "json" {
		return p.JSON()
	}
	return p.Text()
}

// renderAll emits the combined machine-readable report: one JSON array
// of profiles, the artifact CI archives.
func renderAll(profiles []*analysis.Profile) string {
	var b strings.Builder
	b.WriteString("[")
	for i, p := range profiles {
		if i > 0 {
			b.WriteString(",")
		}
		b.WriteString("\n")
		b.WriteString(strings.TrimRight(p.JSON(), "\n"))
	}
	b.WriteString("\n]\n")
	return b.String()
}
