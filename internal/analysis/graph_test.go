package analysis

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
)

var recorded struct {
	once   sync.Once
	graphs map[string]*Graph
	order  []Recording
}

// goldenGraphs records every golden graph once per test binary and fails
// the test on a graphlint or perflint finding: the real drivers must record
// clean.
func goldenGraphs(t *testing.T) map[string]*Graph {
	t.Helper()
	recorded.once.Do(func() {
		recorded.graphs = map[string]*Graph{}
		recorded.order = Goldens()
		for _, r := range recorded.order {
			g, findings, err := Record(r)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range append(findings, PerfLint(g)...) {
				t.Errorf("finding on the real driver %s: %s", r.Name, f)
			}
			recorded.graphs[r.Name] = g
		}
	})
	if len(recorded.graphs) != len(Goldens()) {
		t.Fatal("golden recording failed")
	}
	return recorded.graphs
}

// checkGoldens compares the named graphs with their committed goldens.
// Refresh with:
//
//	go run ./cmd/amrgraph -update internal/analysis/testdata/golden
func checkGoldens(t *testing.T, names ...string) {
	graphs := goldenGraphs(t)
	for _, name := range names {
		path := filepath.Join("testdata", "golden", name+".txt")
		golden, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden (refresh with cmd/amrgraph -update): %v", err)
		}
		if text := graphs[name].Text(); text != string(golden) {
			t.Errorf("driver %s diverges from %s:\n--- got ---\n%s--- want ---\n%s", name, path, text, golden)
		}
	}
}

// TestGoldenGraphs locks miniAMR's recorded task graphs against the
// committed goldens.
func TestGoldenGraphs(t *testing.T) { checkGoldens(t, "dataflow", "exchange", "loop") }

// TestHydroGoldenGraphs locks HYDRO's recorded task graphs against the
// committed goldens.
func TestHydroGoldenGraphs(t *testing.T) { checkGoldens(t, "hydro-dataflow", "hydro-loop") }

// edgeSet renders a graph's edges as "from -> to kind region[ carried]".
func edgeSet(g *Graph) map[string]bool {
	edges := make(map[string]bool)
	for _, e := range g.Edges {
		s := e.From + " -> " + e.To + " " + e.Kind + " " + e.Region
		if e.Carried {
			s += " carried"
		}
		edges[strings.TrimSpace(s)] = true
	}
	return edges
}

// TestGraphStructure asserts the load-bearing dataflow edges the paper's
// task-graph figure promises, independent of golden churn.
func TestGraphStructure(t *testing.T) {
	edges := edgeSet(goldenGraphs(t)["dataflow"])
	// A block is two regions: the halo carries the ghost exchange into the
	// stencil, the interior the stencil's result into the next readers. The
	// stencil may not overwrite an interior that a neighbour's fill or a
	// pack still reads, and the next stage's packs read what it wrote.
	for _, e := range []string{
		"communicate/pack -> communicate/send flow section",
		"communicate/recv -> communicate/unpack flow section",
		"communicate/local-copy -> communicate/unpack flow halo",
		"communicate/unpack -> compute/stencil flow halo",
		"communicate/pack -> compute/stencil anti interior",
		"communicate/local-copy -> compute/stencil anti interior",
		"compute/stencil -> checksum/cksum-local flow interior",
		"checksum/cksum-local -> checksum/taskwait flow slot",
		"compute/stencil -> communicate/pack flow interior carried",
	} {
		if !edges[e] {
			t.Errorf("edge %q missing", e)
		}
	}
	// Packs read interiors and fills write halos: with one region per block
	// each fill waited for the packs of its block.
	for e := range edges {
		if strings.HasPrefix(e, "communicate/pack -> communicate/local-copy") {
			t.Errorf("false dependency %s is back", e)
		}
	}
}

// TestHydroGraphStructure asserts the load-bearing data-flow edges of the
// second application: the communication and checksum chains thread
// through the tile regions, and both reductions close with a collective
// after their taskwait.
func TestHydroGraphStructure(t *testing.T) {
	edges := edgeSet(goldenGraphs(t)["hydro-dataflow"])
	for _, e := range []string{
		"communicate/pack -> communicate/send flow section",
		"communicate/recv -> communicate/unpack flow section",
		"communicate/unpack -> compute/sweep flow halo",
		"communicate/local-copy -> compute/sweep flow halo",
		"compute/sweep -> checksum/cksum-local flow interior",
		"compute/sweep -> communicate/pack flow interior carried",
		"checksum/cksum-local -> checksum/taskwait flow sum",
		"begin-step/cfl-scan -> begin-step/taskwait flow wave",
		"begin-step/taskwait -> begin-step/AllreduceFloat64(Max) seq",
		"checksum/taskwait -> checksum/AllreduceFloat64(Sum) seq",
	} {
		if !edges[e] {
			t.Errorf("edge %q missing", e)
		}
	}
	// Packs, scans and checksums read interiors and the ghost exchange
	// writes halos: with one region per tile the local copies into a tile
	// waited for every reader of it.
	for e := range edges {
		for _, from := range []string{"communicate/pack", "begin-step/cfl-scan", "checksum/cksum-local"} {
			if strings.HasPrefix(e, from+" -> communicate/local-copy") {
				t.Errorf("false dependency %s is back", e)
			}
		}
		if strings.HasPrefix(e, "communicate/local-copy -> communicate/unpack anti") {
			t.Errorf("false dependency %s is back", e)
		}
	}
}

// TestGraphEmitters smoke-tests the DOT and JSON renderings.
func TestGraphEmitters(t *testing.T) {
	for _, g := range goldenGraphs(t) {
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

// TestGoldensDeterministic records every golden at GOMAXPROCS 1 and 4 and
// requires byte-identical graphs and profiles: the recording reads program
// order, never the schedule. make race runs it under the race detector too.
func TestGoldensDeterministic(t *testing.T) {
	render := func() string {
		var b strings.Builder
		for _, r := range Goldens() {
			g, _, err := Record(r)
			if err != nil {
				t.Fatal(err)
			}
			b.WriteString(g.Text())
			for _, w := range r.Profiles {
				b.WriteString(ProfileGraph(g, w).Text())
			}
		}
		return b.String()
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var ref string
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		got := render()
		if ref == "" {
			ref = got
		} else if got != ref {
			t.Errorf("GOMAXPROCS %d records different goldens:\n--- got ---\n%s--- want ---\n%s", procs, got, ref)
		}
	}
}
