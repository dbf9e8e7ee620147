package analysis

import (
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// hydroGraphs extracts the driver graphs from the second application,
// failing the test on extraction findings.
func hydroGraphs(t *testing.T) []*Graph {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := Load(fset, []string{filepath.Join("..", "hydro")}, false)
	if err != nil {
		t.Fatal(err)
	}
	graphs, findings := ExtractGraphs(pkgs)
	for _, f := range findings {
		t.Errorf("graph finding on the real tree: %s", f)
	}
	return graphs
}

// TestHydroGoldenGraphs locks HYDRO's extracted task DAGs against the
// committed goldens. Refresh with:
//
//	go run ./cmd/amrgraph -update internal/analysis/testdata/golden ./internal/amr/app ./internal/hydro
func TestHydroGoldenGraphs(t *testing.T) {
	graphs := hydroGraphs(t)
	want := []string{"hydro-dataflow", "hydro-loop"}
	var got []string
	for _, g := range graphs {
		got = append(got, g.Driver)
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("extracted drivers %v, want %v", got, want)
	}
	for _, g := range graphs {
		path := filepath.Join("testdata", "golden", g.Driver+".txt")
		golden, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden (refresh with cmd/amrgraph -update): %v", err)
		}
		if text := g.Text(); text != string(golden) {
			t.Errorf("driver %s diverges from %s:\n--- got ---\n%s--- want ---\n%s",
				g.Driver, path, text, golden)
		}
	}
}

// TestHydroGraphStructure asserts the load-bearing data-flow edges of the
// second application, independent of golden churn: the communication and
// checksum chains must thread through the tile regions the same way the
// paper's task-graph figure promises for HYDRO.
func TestHydroGraphStructure(t *testing.T) {
	byDriver := make(map[string]*Graph)
	for _, g := range hydroGraphs(t) {
		byDriver[g.Driver] = g
	}
	df := byDriver["hydro-dataflow"]
	if df == nil {
		t.Fatal("no hydro-dataflow graph extracted")
	}
	edges := make(map[string]string)
	for _, e := range df.Edges {
		edges[e.From+" -> "+e.To] = e.Kind
	}
	wantFlow := []string{
		"communicate/pack -> communicate/send",
		"communicate/recv -> communicate/unpack",
		"communicate/unpack -> sweep/sweep",
		"sweep/sweep -> checksum/cksum-local",
		"checksum/cksum-local -> checksum/WaitKeys",
		"timestep/cfl-scan -> timestep/WaitKeys",
	}
	for _, e := range wantFlow {
		if edges[e] != "flow" {
			t.Errorf("edge %q = %q, want flow", e, edges[e])
		}
	}
	// Both the CFL reduction and the checksum close with a collective
	// after their taskwait.
	for _, phase := range []string{"timestep", "checksum"} {
		key := phase + "/WaitKeys -> " + phase + "/AllreduceFloat64"
		if edges[key] != "seq" {
			t.Errorf("edge %q = %q, want seq", key, edges[key])
		}
	}
}
