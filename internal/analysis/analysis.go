// Package analysis implements amrlint, a repo-specific static-analysis
// suite enforcing the unchecked conventions the pooled message path rests
// on. The hybrid task+MPI design moved correctness from types into
// protocol: every arena lease must reach a Put, Release or ownership
// transfer; every non-blocking request must be completed; task dependency
// declarations must match the closure's accesses; collectives must not
// hide inside rank-conditional branches. Each of those conventions is a
// deadlock or a leak when violated, and none of them is visible to go vet.
//
// The core analyzers cover them:
//
//   - leaselint: membuf leases and pooled buffers reach Release/Put or an
//     ownership-transfer send on every path; flags double release and
//     use after release.
//   - reqlint: every Isend/Irecv request flows into Wait/Test/Waitall/
//     WaitSet; flags dropped, shadowed and error-path-leaked requests.
//   - deplint: task.Spawn dependency keys are unique and consistent with
//     the closure body; flags writes to regions declared in and taskwait
//     calls inside task bodies.
//   - collectivelint: collective operations (Barrier, Bcast, Allreduce,
//     Allgatherv, ...) must be unconditional with respect to the rank;
//     flags the classic collective-mismatch deadlock.
//
// Two whole-program verifiers ride on the same loader: conclint (lock
// order, blocking-under-lock, channel lifecycle) and determlint
// (nondeterminism sources must not reach checksum, output or protocol
// sinks).
//
// The driver task graphs are not read out of the source: Record runs a
// driver and records the graph its runtime builds (record.go, graph.go).
// graphlint checks the recorded graph (graphlint.go) and perflint
// evaluates it in the work-span model and flags needless serialization
// (costmodel.go, perflint.go); cmd/amrgraph and cmd/amrperf run them on
// the committed goldens (goldens.go).
//
// The suite is stdlib-only: a go/parser+go/types loader over the module
// tree (no go/packages, no external dependencies). Analysis is
// intentionally conservative — escape of a tracked value into a struct,
// slice, channel, closure or unknown call ends tracking rather than
// guessing — so a finding is very likely a real defect.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Finding is one diagnostic produced by an analyzer.
type Finding struct {
	Pos      token.Position
	Analyzer string
	// Rule is the stable machine-readable rule slug within the analyzer
	// (e.g. "perf-needless-barrier"). Analyzers with a single rule leave
	// it equal to their name.
	Rule string
	// Severity is "error" or "warning"; errors gate the build, warnings
	// pin drift.
	Severity string
	Message  string
}

// ID is the stable finding identifier of amrlint's JSON output and of
// graphlint's and perflint's findings: the analyzer name, qualified by the
// rule when the analyzer distinguishes several.
func (f Finding) ID() string {
	if f.Rule == "" || f.Rule == f.Analyzer {
		return f.Analyzer
	}
	return f.Analyzer + "/" + f.Rule
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Pos, f.ID(), f.Message)
}

// Analyzer is one named check over a loaded package.
type Analyzer struct {
	Name string
	Doc  string
	run  func(*Pass)
}

// All returns the full amrlint suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{LeaseLint, ReqLint, DepLint, CollectiveLint, ConcLint, DetermLint}
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Fset *token.FileSet
	Pkg  *Package

	analyzer *Analyzer
	findings *[]Finding
}

// Reportf records an error-severity finding at pos under the analyzer's
// default rule.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.ReportRulef(pos, p.analyzer.Name, "error", format, args...)
}

// ReportRulef records a finding at pos under an explicit rule slug and
// severity ("error" or "warning").
func (p *Pass) ReportRulef(pos token.Pos, rule, severity, format string, args ...any) {
	*p.findings = append(*p.findings, Finding{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.analyzer.Name,
		Rule:     rule,
		Severity: severity,
		Message:  fmt.Sprintf(format, args...),
	})
}

// objOf resolves an identifier to its object, whether the identifier
// defines it or uses it. It returns nil for unresolved identifiers (the
// tolerant type-check leaves cross-package references unresolved).
func (p *Pass) objOf(id *ast.Ident) types.Object {
	if obj := p.Pkg.Info.Defs[id]; obj != nil {
		return obj
	}
	return p.Pkg.Info.Uses[id]
}

// Run applies the analyzers to every package and returns the combined
// findings, deduplicated and in (file, line, column, analyzer, message)
// order.
func Run(pkgs []*Package, analyzers []*Analyzer) []Finding {
	var findings []Finding
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{Fset: pkg.Fset, Pkg: pkg, analyzer: a, findings: &findings}
			a.run(pass)
		}
	}
	return dedupeFindings(findings)
}

// dedupeFindings sorts findings into reporting order and drops exact
// duplicates. The builtin classification and the interprocedural
// summary layer can legitimately diagnose the same site — the user
// should see one finding, not the analysis architecture.
func dedupeFindings(findings []Finding) []Finding {
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	out := findings[:0]
	for _, f := range findings {
		if n := len(out); n > 0 {
			prev := out[n-1]
			if f.Pos == prev.Pos && f.Analyzer == prev.Analyzer && f.Message == prev.Message {
				continue
			}
		}
		out = append(out, f)
	}
	return out
}

// funcBodies visits every function body in the package's files: named
// declarations here, function literals through the visitors themselves.
func funcBodies(pkg *Package, visit func(decl *ast.FuncDecl)) {
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				visit(fd)
			}
		}
	}
}
