package analysis

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// This file is perflint's hot-path allocation lint. Functions on the
// send–receive fast path carry an //amr:hot directive declaring their
// heap-escape budget:
//
//	//amr:hot allocs=N
//
// The budget counts the *escape sites* the compiler proves in the
// function body — the `escapes to heap` / `moved to heap` diagnostics of
// `go build -gcflags=-m` — not runtime allocations per call (a pooled
// buffer's escape site executes only on pool miss). Pinning sites
// statically is what lets the PingPong ≤4 / GhostExchange ≤8 allocs/op
// benchmark baselines be enforced before a benchmark ever runs: a new
// escape site on the hot path is exactly a new allocs/op term.
//
// CheckEscapes reports over-budget sites as errors and under-budget
// counts as warnings, so an optimization that removes a site fails the
// gate too until the pin is lowered — the "measure, fix, pin" loop.

// HotFunc is one //amr:hot annotated function: its declared escape
// budget and the source range the budget covers.
type HotFunc struct {
	Name   string         // package-qualified display name
	File   string         // file path as the loader resolved it
	Budget int            // declared escape-site budget
	Start  int            // first line of the declaration
	End    int            // last line of the body
	Pos    token.Position // report position (the func keyword)
}

// CollectHotFuncs gathers every //amr:hot directive in pkgs, in (file,
// line) order. Malformed directives surface as findings.
func CollectHotFuncs(pkgs []*Package) ([]HotFunc, []Finding) {
	var hots []HotFunc
	var findings []Finding
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				dir, ok := directiveLine(fd.Doc, "amr:hot")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(fd.Pos())
				budget := -1
				for _, f := range strings.Fields(dir) {
					if v, ok := strings.CutPrefix(f, "allocs="); ok {
						if n, err := strconv.Atoi(v); err == nil && n >= 0 {
							budget = n
						}
					}
				}
				if budget < 0 {
					findings = append(findings, Finding{
						Pos: pos, Analyzer: "perflint",
						Rule: "perf-hot-alloc", Severity: "error",
						Message: "malformed //amr:hot directive: need allocs=<n>",
					})
					continue
				}
				name := fd.Name.Name
				if fd.Recv != nil && len(fd.Recv.List) > 0 {
					if t := baseTypeName(fd.Recv.List[0].Type); t != "" {
						name = t + "." + name
					}
				}
				hots = append(hots, HotFunc{
					Name:   pkg.Name + "." + name,
					File:   pos.Filename,
					Budget: budget,
					Start:  pos.Line,
					End:    pkg.Fset.Position(fd.End()).Line,
					Pos:    pos,
				})
			}
		}
	}
	sort.Slice(hots, func(i, j int) bool {
		if hots[i].File != hots[j].File {
			return hots[i].File < hots[j].File
		}
		return hots[i].Start < hots[j].Start
	})
	return hots, findings
}

// EscapeSite is one compiler-proved heap escape.
type EscapeSite struct {
	File string
	Line int
	Col  int
	Msg  string
}

var escapeLineRE = regexp.MustCompile(`^(.+\.go):(\d+):(\d+): (.*(?:escapes to heap|moved to heap).*)$`)

// ParseEscapes extracts the heap-escape sites from `go build
// -gcflags=-m` diagnostic output. Only `escapes to heap` and `moved to
// heap` lines count ("does not escape" and "leaking param" are
// negations and annotations, not allocations); sites are deduplicated
// by position because generic instantiations repeat per shape.
func ParseEscapes(output string) []EscapeSite {
	var sites []EscapeSite
	seen := make(map[string]bool)
	sc := bufio.NewScanner(strings.NewReader(output))
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if strings.Contains(line, "does not escape") {
			continue
		}
		m := escapeLineRE.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		key := m[1] + ":" + m[2] + ":" + m[3]
		if seen[key] {
			continue
		}
		seen[key] = true
		l, _ := strconv.Atoi(m[2])
		c, _ := strconv.Atoi(m[3])
		sites = append(sites, EscapeSite{File: m[1], Line: l, Col: c, Msg: m[4]})
	}
	return sites
}

// sameFile reports whether a compiler-printed path and a loader-resolved
// path name the same file: equal, or one is a component-aligned suffix
// of the other (builds print package-relative paths, loaders absolute
// ones).
func sameFile(a, b string) bool {
	if a == b {
		return true
	}
	if strings.HasSuffix(a, "/"+b) || strings.HasSuffix(b, "/"+a) {
		return true
	}
	return false
}

// CheckEscapes audits every hot function's escape sites against its
// declared budget. Over budget is an error — a new allocation on the
// fast path; under budget is a warning — the pin has drifted and should
// be tightened.
func CheckEscapes(hots []HotFunc, sites []EscapeSite) []Finding {
	var findings []Finding
	for _, h := range hots {
		n := 0
		var msgs []string
		for _, s := range sites {
			if s.Line >= h.Start && s.Line <= h.End && sameFile(s.File, h.File) {
				n++
				msgs = append(msgs, fmt.Sprintf("%d:%d %s", s.Line, s.Col, s.Msg))
			}
		}
		switch {
		case n > h.Budget:
			findings = append(findings, Finding{
				Pos: h.Pos, Analyzer: "perflint",
				Rule: "perf-hot-alloc", Severity: "error",
				Message: fmt.Sprintf("%s has %d heap-escape sites, over its //amr:hot budget of %d: %s",
					h.Name, n, h.Budget, strings.Join(msgs, "; ")),
			})
		case n < h.Budget:
			findings = append(findings, Finding{
				Pos: h.Pos, Analyzer: "perflint",
				Rule: "perf-hot-alloc", Severity: "warning",
				Message: fmt.Sprintf("%s has %d heap-escape sites, under its //amr:hot budget of %d: lower the pin",
					h.Name, n, h.Budget),
			})
		}
	}
	return dedupeFindings(findings)
}

// directiveLine finds `//<prefix> rest` in a comment group.
func directiveLine(doc *ast.CommentGroup, prefix string) (string, bool) {
	if doc == nil {
		return "", false
	}
	for _, c := range doc.List {
		text := strings.TrimPrefix(c.Text, "//")
		if rest, ok := strings.CutPrefix(text, prefix); ok {
			return strings.TrimSpace(rest), true
		}
	}
	return "", false
}

// baseTypeName strips pointers and package qualifiers from a type
// expression, returning the bare type name.
func baseTypeName(t ast.Expr) string {
	switch t := ast.Unparen(t).(type) {
	case *ast.Ident:
		return t.Name
	case *ast.SelectorExpr:
		return t.Sel.Name
	case *ast.StarExpr:
		return baseTypeName(t.X)
	}
	return ""
}
