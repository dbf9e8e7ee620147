// Command amrperf evaluates the statically extracted driver graphs (see
// internal/analysis and cmd/amrgraph) under concrete instance counts
// into performance profiles: critical-path length and concurrency width
// in the work-span model, the resulting speedup bound, and the per-rank
// communication volume with surface-to-volume message scaling. It is the
// cost-model half of perflint, exposed so the profiles can be rendered,
// diffed and committed as goldens.
//
// Modes:
//
//	amrperf [packages]                 print profiles to stdout (-format)
//	amrperf -o dir [packages]          write one file per profile to dir
//	amrperf -update dir [packages]     refresh golden text profiles in dir
//	amrperf -check dir [packages]      diff against goldens; exit 1 on drift
//	amrperf -escape [packages]         also audit //amr:hot allocation pins
//	                                   (compiles the packages with -gcflags=-m)
//
// Each driver is evaluated at its committed default points (see
// analysis.DefaultCostConfig: one per driver, two for a loop driver, which
// is the MPI-only rank at one worker and the fork-join rank at sixteen);
// -workers, -axes and -bytes override them:
//
//	amrperf -axes blocks=64,msgs=6 -workers 48 ./internal/amr/app
//
// Exit status: 0 clean, 1 golden mismatch or findings, 2 usage or load
// error.
package main

import (
	"flag"
	"fmt"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"

	"miniamr/internal/analysis"
)

func main() {
	format := flag.String("format", "text", "output format: text or json")
	outDir := flag.String("o", "", "write one file per profile into this directory")
	checkDir := flag.String("check", "", "compare text profiles against goldens in this directory")
	updateDir := flag.String("update", "", "write text profiles as goldens into this directory")
	workers := flag.Int("workers", 0, "override the per-rank worker count for every driver")
	axesFlag := flag.String("axes", "", "comma-separated axis=count overrides (e.g. blocks=64,msgs=6)")
	bytesFlag := flag.String("bytes", "", "comma-separated axis=bytes message payload overrides")
	escape := flag.Bool("escape", false, "audit //amr:hot allocation budgets against the compiler's escape analysis")
	tests := flag.Bool("tests", false, "also analyze _test.go files")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: amrperf [-format text|json] [-workers n] [-axes a=n,...] [-bytes a=n,...] [-escape] [-o dir | -check dir | -update dir] [packages]\n\npackages are directories or dir/... trees (default ./...)\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	switch *format {
	case "text", "json":
	default:
		fmt.Fprintf(os.Stderr, "amrperf: unknown format %q\n", *format)
		os.Exit(2)
	}
	axes, err := parseCounts(*axesFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "amrperf: -axes:", err)
		os.Exit(2)
	}
	bytesOv, err := parseCounts(*bytesFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "amrperf: -bytes:", err)
		os.Exit(2)
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
	graphs, findings := analysis.ExtractGraphs(pkgs)
	for _, f := range findings {
		fmt.Fprintln(os.Stderr, f)
	}
	if len(graphs) == 0 {
		fmt.Fprintln(os.Stderr, "amrperf: no //amr:graph anchors found")
		os.Exit(2)
	}
	status := 0
	if len(findings) > 0 {
		status = 1
	}

	var profiles []*analysis.Profile
	for _, g := range graphs {
		points, _ := analysis.DefaultCostConfig(g.Driver)
		if *workers > 0 {
			// One worker count asked for: one profile per driver.
			points = points[:1]
			points[0].Workers = *workers
		}
		for _, cfg := range points {
			cfg.Axes = overlay(cfg.Axes, axes)
			cfg.Bytes = overlay(cfg.Bytes, bytesOv)
			p := analysis.ProfileGraph(g, cfg)
			for _, w := range p.Warnings {
				fmt.Fprintf(os.Stderr, "amrperf: profile %s: %s\n", p.Name, w)
			}
			profiles = append(profiles, p)
		}
	}

	if *escape {
		if !runEscapeAudit(pkgs, patterns) {
			status = 1
		}
	}

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
			if got := p.Text(); got != string(want) {
				fmt.Fprintf(os.Stderr, "amrperf: profile %s diverges from golden %s (run amrperf -update %s to refresh)\n",
					p.Name, path, *checkDir)
				status = 1
			}
		}
	case *updateDir != "":
		if err := os.MkdirAll(*updateDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "amrperf:", err)
			os.Exit(2)
		}
		for _, p := range profiles {
			path := filepath.Join(*updateDir, p.Name+".txt")
			if err := os.WriteFile(path, []byte(p.Text()), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "amrperf:", err)
				os.Exit(2)
			}
			fmt.Println("wrote", path)
		}
	case *outDir != "":
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "amrperf:", err)
			os.Exit(2)
		}
		ext := map[string]string{"text": ".txt", "json": ".json"}[*format]
		for _, p := range profiles {
			path := filepath.Join(*outDir, p.Name+ext)
			if err := os.WriteFile(path, []byte(render(p, *format)), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "amrperf:", err)
				os.Exit(2)
			}
			fmt.Println("wrote", path)
		}
	default:
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

// parseCounts parses "a=1,b=2" override lists.
func parseCounts(s string) (map[string]int, error) {
	if s == "" {
		return nil, nil
	}
	m := make(map[string]int)
	for _, kv := range strings.Split(s, ",") {
		name, val, found := strings.Cut(kv, "=")
		if !found || name == "" {
			return nil, fmt.Errorf("malformed entry %q (want axis=count)", kv)
		}
		n, err := strconv.Atoi(val)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("malformed count in %q", kv)
		}
		m[name] = n
	}
	return m, nil
}

// overlay applies overrides on top of a preset without mutating it.
func overlay(base, over map[string]int) map[string]int {
	if len(over) == 0 {
		return base
	}
	out := make(map[string]int, len(base)+len(over))
	for k, v := range base {
		out[k] = v
	}
	for k, v := range over {
		out[k] = v
	}
	return out
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
