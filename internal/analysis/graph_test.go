package analysis

import (
	"encoding/json"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// appGraphs extracts the driver graphs from the real application
// package, failing the test on extraction findings: the committed tree
// must satisfy every graph invariant.
func appGraphs(t *testing.T) []*Graph {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := Load(fset, []string{filepath.Join("..", "amr", "app")}, false)
	if err != nil {
		t.Fatal(err)
	}
	graphs, findings := ExtractGraphs(pkgs)
	for _, f := range findings {
		t.Errorf("graph finding on the real tree: %s", f)
	}
	return graphs
}

// TestGoldenGraphs locks the extracted task DAGs and communication
// topologies against the committed goldens. Refresh with:
//
//	go run ./cmd/amrgraph -update internal/analysis/testdata/golden ./internal/amr/app
func TestGoldenGraphs(t *testing.T) {
	graphs := appGraphs(t)
	want := []string{"dataflow", "exchange", "loop"}
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

// TestGraphStructure asserts the load-bearing dataflow edges the paper's
// task-graph figure promises, independent of golden churn.
func TestGraphStructure(t *testing.T) {
	graphs := appGraphs(t)
	byDriver := make(map[string]*Graph)
	for _, g := range graphs {
		byDriver[g.Driver] = g
	}
	df := byDriver["dataflow"]
	if df == nil {
		t.Fatal("no dataflow graph extracted")
	}
	edges := make(map[string]string)
	for _, e := range df.Edges {
		edges[e.From+" -> "+e.To] = e.Kind + " " + e.Region
	}
	// A block is two regions: the halo carries the ghost exchange into the
	// stencil, the interior the stencil's result into the next readers. The
	// stencil may not overwrite an interior that a neighbour's fill or a
	// pack still reads.
	want := map[string]string{
		"communicate/pack -> communicate/send":         "flow section",
		"communicate/recv -> communicate/unpack":       "flow section",
		"communicate/local-copy -> communicate/unpack": "flow halo",
		"communicate/unpack -> stencil/stencil":        "flow halo",
		"communicate/pack -> stencil/stencil":          "anti interior",
		"communicate/local-copy -> stencil/stencil":    "anti interior",
		"stencil/stencil -> checksum/cksum-local":      "flow interior",
	}
	for e, kind := range want {
		if edges[e] != kind {
			t.Errorf("edge %q: got %q, want %q", e, edges[e], kind)
		}
	}
	// Packs read interiors and fills write halos: with one region per block
	// each fill waited for the packs of its block.
	if kind, ok := edges["communicate/pack -> communicate/local-copy"]; ok {
		t.Errorf("false dependency pack -> local-copy (%s) is back", kind)
	}
	for _, g := range graphs {
		for _, n := range g.Nodes {
			if n.Unknown {
				t.Errorf("driver %s node %s has unknown dependencies", g.Driver, n.ID)
			}
		}
	}
}

// TestGraphEmitters smoke-tests the DOT and JSON renderings.
func TestGraphEmitters(t *testing.T) {
	graphs := appGraphs(t)
	for _, g := range graphs {
		var decoded Graph
		if err := json.Unmarshal([]byte(g.JSON()), &decoded); err != nil {
			t.Fatalf("driver %s JSON does not round-trip: %v", g.Driver, err)
		}
		if decoded.Driver != g.Driver || len(decoded.Nodes) != len(g.Nodes) || len(decoded.Edges) != len(g.Edges) {
			t.Errorf("driver %s JSON dropped content", g.Driver)
		}
		dot := g.DOT()
		if !strings.Contains(dot, "digraph") || !strings.Contains(dot, "subgraph cluster_0") {
			t.Errorf("driver %s DOT lacks digraph/cluster structure:\n%s", g.Driver, dot)
		}
		for _, n := range g.Nodes {
			if !strings.Contains(dot, "\""+n.ID+"\"") {
				t.Errorf("driver %s DOT misses node %s", g.Driver, n.ID)
			}
		}
	}
}
