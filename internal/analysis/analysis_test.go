package analysis

import (
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// Each analyzer's testdata corpus marks every line that must produce a
// finding with a `// want "substring"` comment. The test asserts an exact
// bidirectional match: every want is hit by a finding whose message
// contains the substring, and every finding lands on a wanted line.

func TestAnalyzersOnCorpora(t *testing.T) {
	for _, a := range All() {
		t.Run(a.Name, func(t *testing.T) {
			runCorpus(t, a)
		})
	}
	for _, name := range []string{"graphlint", "perflint"} {
		t.Run(name, func(t *testing.T) { runGraphCorpus(t, name) })
	}
}

var wantRE = regexp.MustCompile(`// want "([^"]+)"`)

func runCorpus(t *testing.T, a *Analyzer) {
	dir := filepath.Join("testdata", a.Name)
	fset := token.NewFileSet()
	pkgs, err := Load(fset, []string{dir}, false)
	if err != nil {
		t.Fatalf("load %s: %v", dir, err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("no packages under %s", dir)
	}
	findings := Run(pkgs, []*Analyzer{a})

	// file:line -> expected message substrings
	wants := make(map[string][]string)
	wantCount := 0
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			for _, m := range wantRE.FindAllStringSubmatch(line, -1) {
				key := fmt.Sprintf("%s:%d", path, i+1)
				wants[key] = append(wants[key], m[1])
				wantCount++
			}
		}
	}
	if wantCount == 0 {
		t.Fatalf("corpus %s has no // want comments", dir)
	}

	matched := make(map[string][]bool) // parallel to wants
	for key, subs := range wants {
		matched[key] = make([]bool, len(subs))
	}
	for _, f := range findings {
		key := fmt.Sprintf("%s:%d", f.Pos.Filename, f.Pos.Line)
		subs, ok := wants[key]
		if !ok {
			t.Errorf("unexpected finding: %s", f)
			continue
		}
		hit := false
		for i, sub := range subs {
			if !matched[key][i] && strings.Contains(f.Message, sub) {
				matched[key][i] = true
				hit = true
				break
			}
		}
		if !hit {
			t.Errorf("finding at %s does not match any want %q: %s", key, subs, f.Message)
		}
	}
	for key, subs := range wants {
		for i, sub := range subs {
			if !matched[key][i] {
				t.Errorf("missed expected finding at %s: want message containing %q", key, sub)
			}
		}
	}
}

// TestRepoIsClean locks in the acceptance criterion: the amrlint suite
// reports zero findings on the repository's own tree.
func TestRepoIsClean(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := Load(fset, []string{"./..."}, false)
	if err != nil {
		t.Fatalf("load module tree: %v", err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("suspiciously few packages loaded (%d): loader broken?", len(pkgs))
	}
	findings := Run(pkgs, All())
	for _, f := range findings {
		t.Errorf("finding on the real tree: %s", f)
	}
}

// TestLoadSkipsTestdata ensures the module walk does not descend into the
// corpora (which seed violations on purpose).
func TestLoadSkipsTestdata(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := Load(fset, []string{"./..."}, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pkgs {
		if strings.Contains(p.Dir, "testdata") {
			t.Errorf("walk descended into %s", p.Dir)
		}
	}
}
