package analysis

import (
	"go/token"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseEscapes(t *testing.T) {
	out := strings.Join([]string{
		"# miniamr/internal/mpi",
		"internal/mpi/p2p.go:216:66: tag escapes to heap:",
		"internal/mpi/p2p.go:216:66: tag escapes to heap:", // generic shape duplicate
		"internal/mpi/p2p.go:216:71: 16777216 escapes to heap:",
		"internal/mpi/p2p.go:100:6: can inline (*mailbox).deliver",
		"internal/mpi/p2p.go:94:25: msg does not escape",
		"internal/mpi/p2p.go:60:40: leaking param: buf",
		"internal/membuf/membuf.go:81:14: make([]T, n, 1 << c) escapes to heap:",
		"internal/mpi/request.go:71:16: moved to heap: r",
	}, "\n")
	sites := ParseEscapes(out)
	if len(sites) != 4 {
		t.Fatalf("got %d sites, want 4: %+v", len(sites), sites)
	}
	if sites[0].File != "internal/mpi/p2p.go" || sites[0].Line != 216 || sites[0].Col != 66 {
		t.Errorf("unexpected first site: %+v", sites[0])
	}
	if !strings.Contains(sites[3].Msg, "moved to heap") {
		t.Errorf("moved-to-heap line not parsed: %+v", sites[3])
	}
}

func TestCheckEscapes(t *testing.T) {
	hots := []HotFunc{
		{Name: "mpi.over", File: "a/b/hot.go", Budget: 1, Start: 10, End: 20,
			Pos: token.Position{Filename: "a/b/hot.go", Line: 10}},
		{Name: "mpi.exact", File: "a/b/hot.go", Budget: 1, Start: 30, End: 40,
			Pos: token.Position{Filename: "a/b/hot.go", Line: 30}},
		{Name: "mpi.under", File: "a/b/hot.go", Budget: 2, Start: 50, End: 60,
			Pos: token.Position{Filename: "a/b/hot.go", Line: 50}},
	}
	sites := []EscapeSite{
		{File: "b/hot.go", Line: 12, Col: 1, Msg: "x escapes to heap"},
		{File: "b/hot.go", Line: 13, Col: 2, Msg: "y escapes to heap"},
		{File: "b/hot.go", Line: 35, Col: 3, Msg: "z escapes to heap"},
		{File: "b/hot.go", Line: 55, Col: 4, Msg: "w escapes to heap"},
		{File: "other.go", Line: 12, Col: 1, Msg: "unrelated escapes to heap"},
	}
	findings := CheckEscapes(hots, sites)
	if len(findings) != 2 {
		t.Fatalf("got %d findings, want 2: %v", len(findings), findings)
	}
	for _, f := range findings {
		if f.ID() != "perflint/perf-hot-alloc" {
			t.Errorf("finding ID = %q, want perflint/perf-hot-alloc", f.ID())
		}
		switch {
		case strings.Contains(f.Message, "mpi.over"):
			if f.Severity != "error" || !strings.Contains(f.Message, "over its //amr:hot budget of 1") {
				t.Errorf("over-budget finding wrong: %v", f)
			}
		case strings.Contains(f.Message, "mpi.under"):
			if f.Severity != "warning" || !strings.Contains(f.Message, "lower the pin") {
				t.Errorf("under-budget finding wrong: %v", f)
			}
		default:
			t.Errorf("unexpected finding: %v", f)
		}
	}
}

// buildEscapes compiles pkgs with -gcflags=-m and returns the parsed
// escape sites. Diagnostics land on stderr; the build itself must pass.
func buildEscapes(t *testing.T, pkgs ...string) []EscapeSite {
	t.Helper()
	args := append([]string{"build", "-gcflags=-m"}, pkgs...)
	cmd := exec.Command("go", args...)
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-m %v: %v\n%s", pkgs, err, out)
	}
	return ParseEscapes(string(out))
}

// TestEscapeCorpus compiles the seeded violation package for real and
// checks that the over- and under-budget pins trip while the exact pin
// stays silent.
func TestEscapeCorpus(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := Load(fset, []string{filepath.Join("testdata", "escape")}, false)
	if err != nil {
		t.Fatal(err)
	}
	hots, malformed := CollectHotFuncs(pkgs)
	if len(malformed) != 0 {
		t.Fatalf("unexpected malformed directives: %v", malformed)
	}
	if len(hots) != 3 {
		t.Fatalf("got %d hot funcs, want 3: %+v", len(hots), hots)
	}
	sites := buildEscapes(t, "./internal/analysis/testdata/escape")
	findings := CheckEscapes(hots, sites)
	if len(findings) != 2 {
		t.Fatalf("got %d findings, want 2 (over + under): %v", len(findings), findings)
	}
	var sawOver, sawUnder bool
	for _, f := range findings {
		switch {
		case strings.Contains(f.Message, ".leak") && f.Severity == "error":
			sawOver = true
		case strings.Contains(f.Message, ".drifted") && f.Severity == "warning":
			sawUnder = true
		default:
			t.Errorf("unexpected finding: %v", f)
		}
	}
	if !sawOver || !sawUnder {
		t.Errorf("missing expected findings (over=%v under=%v): %v", sawOver, sawUnder, findings)
	}
}

// TestRepoHotBudgets is the static allocs/op gate: every //amr:hot
// budget in the real tree matches the compiler's proved escape sites
// exactly, so a new allocation on the send-receive path (or a stale pin
// after an optimization) fails here before any benchmark runs.
func TestRepoHotBudgets(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := Load(fset, []string{"./..."}, false)
	if err != nil {
		t.Fatal(err)
	}
	hots, malformed := CollectHotFuncs(pkgs)
	if len(malformed) != 0 {
		t.Fatalf("malformed //amr:hot directives: %v", malformed)
	}
	if len(hots) < 20 {
		t.Fatalf("suspiciously few //amr:hot functions (%d): directives lost?", len(hots))
	}
	sites := buildEscapes(t,
		"./internal/mpi", "./internal/tampi", "./internal/membuf", "./internal/driver",
		"./internal/task", "./internal/amr/app", "./internal/hydro")
	for _, f := range CheckEscapes(hots, sites) {
		t.Errorf("hot-path budget violation: %v", f)
	}
}
