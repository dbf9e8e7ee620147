package analysis

import (
	"strings"
	"testing"
)

// dagGraph builds a small task-bearing diamond:
//
//	recv -> unpack -> stencil ;  pack -> send
//
// with pack independent of the recv chain, so the antichain can combine
// both branches, and four messages each way.
func dagGraph() *Graph {
	mk := func(label string, count int) *Node {
		return &Node{ID: "communicate/" + label, Phase: "communicate", Kind: "task", Label: label, Count: count}
	}
	return &Graph{
		Driver: "toy-dataflow",
		Phases: []Phase{{Name: "communicate", Seq: 2, Sends: 4, Recvs: 4}},
		Nodes:  []*Node{mk("recv", 4), mk("pack", 8), mk("send", 4), mk("unpack", 8), mk("stencil", 10)},
		Edges: []Edge{
			{From: "communicate/pack", To: "communicate/send", Kind: "flow"},
			{From: "communicate/recv", To: "communicate/unpack", Kind: "flow"},
			{From: "communicate/unpack", To: "communicate/stencil", Kind: "flow"},
			// A carried edge reaches the next pass and lengthens nothing.
			{From: "communicate/stencil", To: "communicate/pack", Kind: "flow", Carried: true},
		},
	}
}

func TestProfileDataflowDAG(t *testing.T) {
	p := ProfileGraph(dagGraph(), 16)
	if p.Mode != "dataflow" {
		t.Fatalf("mode = %q, want dataflow", p.Mode)
	}
	// Work: 4 + 8 + 4 + 8 + 10.
	if p.Work != 34 {
		t.Errorf("work = %d, want 34", p.Work)
	}
	// Span: every task node is parallel, the longest chain is
	// recv -> unpack -> stencil = 3 steps.
	if p.Span != 3 {
		t.Errorf("span = %d, want 3", p.Span)
	}
	// Width: pack and send are comparable, recv/unpack/stencil pairwise
	// comparable; the heaviest antichain is pack(8) + stencil(10).
	if p.MaxWidth != 18 {
		t.Errorf("max width = %d, want 18", p.MaxWidth)
	}
	if want := 34.0 / 3.0; p.AvgWidth < want-1e-9 || p.AvgWidth > want+1e-9 {
		t.Errorf("avg width = %v, want %v", p.AvgWidth, want)
	}
	// SpeedupBound = min(16, 34/3) = 34/3.
	if p.SpeedupBound != p.AvgWidth {
		t.Errorf("speedup bound = %v, want avg width %v", p.SpeedupBound, p.AvgWidth)
	}
	if p.Sends != 4 || p.Recvs != 4 {
		t.Errorf("comm = sends %d recvs %d, want 4 each", p.Sends, p.Recvs)
	}
}

func TestProfileSerialRegionsLengthenSpan(t *testing.T) {
	g := dagGraph()
	// Make the sends a taskwait per message: the span gains the full count
	// in place of one step.
	g.Nodes[2].Kind = "wait"
	p := ProfileGraph(g, 16)
	// Longest chain is now pack -> send = 1 + 4 = 5.
	if p.Span != 5 {
		t.Errorf("span = %d, want 5", p.Span)
	}
	// The serial node weighs 1 in the antichain; pack+stencil still wins.
	if p.MaxWidth != 18 {
		t.Errorf("max width = %d, want 18", p.MaxWidth)
	}
}

// barrierGraph is a loop driver's shape: no task nodes, two phases, the
// master's four sends and receives in the first and one parallel region in
// each.
func barrierGraph() *Graph {
	return &Graph{
		Driver: "toy-loop",
		Phases: []Phase{{Name: "communicate", Seq: 2, Sends: 4, Recvs: 4}, {Name: "compute", Seq: 3}},
		Nodes: []*Node{
			{ID: "communicate/pack", Phase: "communicate", Kind: "par", Label: "pack", Count: 6, Regions: 1},
			{ID: "compute/stencil", Phase: "compute", Kind: "par", Label: "stencil", Count: 24, Regions: 1},
		},
	}
}

func TestProfileBarrierComposition(t *testing.T) {
	p := ProfileGraph(barrierGraph(), 8)
	if p.Mode != "barrier" {
		t.Fatalf("mode = %q, want barrier", p.Mode)
	}
	// Work: 4 + 4 + 6 + 24.
	if p.Work != 38 {
		t.Errorf("work = %d, want 38", p.Work)
	}
	// Spans add across phases: communicate = 4 + 4 serial steps + 1 for
	// the pack region = 9; compute = 1. Total 10.
	if p.Span != 10 {
		t.Errorf("span = %d, want 10", p.Span)
	}
	// Widths max across phases: the widest region is the stencil's 24.
	if p.MaxWidth != 24 {
		t.Errorf("max width = %d, want 24", p.MaxWidth)
	}
	// A node whose instances form several regions weighs one region's
	// share and costs a step per region.
	g := barrierGraph()
	g.Nodes[1].Regions = 4
	if p := ProfileGraph(g, 8); p.MaxWidth != 6 || p.Span != 13 {
		t.Errorf("four stencil regions: width %d span %d, want 6 and 13", p.MaxWidth, p.Span)
	}
}

// TestProfileOneWorkerSerialisesRegions pins how one loop graph stands for
// both loop variants: at one worker (the MPI-only rank) every region runs
// on the only thread, so the span is the work and nothing is concurrent.
func TestProfileOneWorkerSerialisesRegions(t *testing.T) {
	p := ProfileGraph(barrierGraph(), 1)
	if p.Work != 38 || p.Span != p.Work {
		t.Errorf("work %d span %d, want both 38", p.Work, p.Span)
	}
	if p.MaxWidth != 1 || p.SpeedupBound != 1 {
		t.Errorf("width %d bound %v, want 1 and 1", p.MaxWidth, p.SpeedupBound)
	}
	for _, c := range p.Nodes {
		if !c.Serial {
			t.Errorf("node %s is parallel on one worker", c.ID)
		}
	}
}

// TestProfileCommVolumeScales pins the communication accounting: the
// counts are the phases' recorded operations, linear in the messages, and
// on a loop driver every one of them is a serial step of the master.
func TestProfileCommVolumeScales(t *testing.T) {
	base := ProfileGraph(barrierGraph(), 4)
	g := barrierGraph()
	g.Phases[0].Sends, g.Phases[0].Recvs = 8, 8
	doubled := ProfileGraph(g, 4)
	if doubled.Sends != 2*base.Sends || doubled.Recvs != 2*base.Recvs {
		t.Errorf("doubling messages: sends %d -> %d, recvs %d -> %d", base.Sends, doubled.Sends, base.Recvs, doubled.Recvs)
	}
	if doubled.Span != base.Span+8 || doubled.Work != base.Work+8 {
		t.Errorf("doubling messages: span %d -> %d, work %d -> %d, want both +8",
			base.Span, doubled.Span, base.Work, doubled.Work)
	}
	// A data-flow graph's messages are sent by its tasks: counted, but no
	// steps of their own.
	df := dagGraph()
	df.Phases[0].Sends = 8
	if p := ProfileGraph(df, 4); p.Sends != 8 || p.Work != 34 || p.Span != 3 {
		t.Errorf("data-flow messages: sends %d work %d span %d, want 8, 34, 3", p.Sends, p.Work, p.Span)
	}
}

func TestMaxWeightAntichain(t *testing.T) {
	// Chain 0->1->2 with weights 5,1,4 plus isolated 3 (weight 2):
	// best is {0,3} = 7 vs {2,3} = 6.
	comparable := func(i, j int) bool {
		return (i < 3 && j < 3) && i != j
	}
	if got := maxWeightAntichain([]int{5, 1, 4, 2}, comparable); got != 7 {
		t.Errorf("antichain weight = %d, want 7", got)
	}
	if got := maxWeightAntichain(nil, nil); got != 0 {
		t.Errorf("empty antichain = %d, want 0", got)
	}
}

func TestProfileTextGoldenForm(t *testing.T) {
	p := ProfileGraph(dagGraph(), 4)
	txt := p.Text()
	for _, want := range []string{
		"driver toy-dataflow\n",
		"mode dataflow\n",
		"workers 4\n",
		"work 34\n",
		"comm sends=4 recvs=4 collectives=0\n",
		"  communicate/recv task count=4\n",
	} {
		if !strings.Contains(txt, want) {
			t.Errorf("golden text missing %q:\n%s", want, txt)
		}
	}
	if strings.Contains(txt, "axes") {
		t.Errorf("golden text still carries an axes line:\n%s", txt)
	}
	// JSON round-trips the same numbers.
	js := p.JSON()
	if !strings.Contains(js, `"driver": "toy-dataflow"`) || !strings.Contains(js, `"sends": 4`) {
		t.Errorf("JSON form missing fields:\n%s", js)
	}
}
