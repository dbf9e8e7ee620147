package analysis

import (
	"strings"
	"testing"
)

// dagGraph builds a small task-bearing diamond:
//
//	recv(msgs, recv-comm) -> unpack(segs) -> stencil(blocks) ;  pack(segs) -> send(msgs, send-comm)
//
// with pack independent of the recv chain, so the antichain can combine
// both branches.
func dagGraph() *Graph {
	mk := func(id, label, kind string, comm ...CommEvent) *Node {
		return &Node{ID: id, Phase: "communicate", Kind: kind, Label: label, Comm: comm}
	}
	g := &Graph{
		Driver: "toy-dataflow",
		Phases: []Phase{{Name: "communicate", Seq: 1}},
		Nodes: []*Node{
			mk("communicate/recv", "recv", "task", CommEvent{Kind: "recv", Op: "Irecv"}),
			mk("communicate/pack", "pack", "task"),
			mk("communicate/send", "send", "task", CommEvent{Kind: "send", Op: "IsendOwned"}),
			mk("communicate/unpack", "unpack", "task"),
			mk("communicate/stencil", "stencil", "task"),
		},
		Edges: []Edge{
			{From: "communicate/pack", To: "communicate/send", Kind: "flow"},
			{From: "communicate/recv", To: "communicate/unpack", Kind: "flow"},
			{From: "communicate/unpack", To: "communicate/stencil", Kind: "flow"},
		},
	}
	g.pars = []parSpec{
		{Phase: "communicate", Label: "recv", Axis: "msgs"},
		{Phase: "communicate", Label: "pack", Axis: "segs"},
		{Phase: "communicate", Label: "send", Axis: "msgs"},
		{Phase: "communicate", Label: "unpack", Axis: "segs"},
		{Phase: "communicate", Label: "stencil", Axis: "blocks"},
	}
	return g
}

func TestProfileDataflowDAG(t *testing.T) {
	cfg := CostConfig{
		Workers:         16,
		Axes:            map[string]int{"msgs": 4, "segs": 8, "blocks": 10},
		Bytes:           map[string]int{"msgs": 1024},
		CollectiveBytes: 8,
	}
	p := ProfileGraph(dagGraph(), cfg)
	if p.Mode != "dataflow" {
		t.Fatalf("mode = %q, want dataflow", p.Mode)
	}
	// Work: 4 + 8 + 4 + 8 + 10.
	if p.Work != 34 {
		t.Errorf("work = %d, want 34", p.Work)
	}
	// Span: every region is parallel, the longest chain is
	// recv -> unpack -> stencil = 3 steps.
	if p.Span != 3 {
		t.Errorf("span = %d, want 3", p.Span)
	}
	// Width: {pack, recv, unpack?...} — pack(8) and send(4) are comparable,
	// recv/unpack/stencil pairwise comparable. Best antichain picks the
	// heaviest of each chain: pack(8) + stencil(10) + recv? recv is
	// incomparable with pack and stencil? recv reaches unpack reaches
	// stencil, so recv~stencil comparable. Antichain: pack(8)+stencil(10)=18,
	// or pack(8)+recv(4)=12, or send(4)+stencil(10)=14. Want 18.
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
	// Comm: the recv node receives 4 messages, the send node sends 4,
	// each scaled by Bytes[msgs].
	if p.Sends != 4 || p.SendBytes != 4096 || p.Recvs != 4 || p.RecvBytes != 4096 {
		t.Errorf("comm = sends %d/%dB recvs %d/%dB, want 4/4096B each",
			p.Sends, p.SendBytes, p.Recvs, p.RecvBytes)
	}
	if len(p.Warnings) != 0 {
		t.Errorf("unexpected warnings: %v", p.Warnings)
	}
}

func TestProfileSerialRegionsLengthenSpan(t *testing.T) {
	g := dagGraph()
	// Make the sends serial (master-thread MPI): the span gains the full
	// message count in place of one step.
	for i := range g.pars {
		if g.pars[i].Label == "send" {
			g.pars[i].Serial = true
		}
	}
	cfg := CostConfig{Workers: 16, Axes: map[string]int{"msgs": 4, "segs": 8, "blocks": 10}}
	p := ProfileGraph(g, cfg)
	// Longest chain is now pack -> send = 1 + 4 = 5.
	if p.Span != 5 {
		t.Errorf("span = %d, want 5", p.Span)
	}
	// The serial send weighs 1 in the antichain; pack+stencil still wins.
	if p.MaxWidth != 18 {
		t.Errorf("max width = %d, want 18", p.MaxWidth)
	}
}

// barrierGraph is a loop driver's shape: no task nodes, two phases, the MPI
// operations serial on the master and the compute regions parallel via
// unmatched //amr:par labels (synthetic region nodes).
func barrierGraph() *Graph {
	g := &Graph{
		Driver: "toy-loop",
		Phases: []Phase{{Name: "communicate", Seq: 1}, {Name: "stencil", Seq: 2}},
		Nodes: []*Node{
			{ID: "communicate/Irecv", Phase: "communicate", Kind: "recv", Label: "Irecv",
				Comm: []CommEvent{{Kind: "recv", Op: "Irecv"}}},
			{ID: "communicate/IsendOwned", Phase: "communicate", Kind: "send", Label: "IsendOwned",
				Comm: []CommEvent{{Kind: "send", Op: "IsendOwned"}}},
		},
		Edges: []Edge{
			{From: "communicate/Irecv", To: "communicate/IsendOwned", Kind: "seq"},
		},
	}
	g.pars = []parSpec{
		{Phase: "communicate", Label: "Irecv", Axis: "msgs", Serial: true},
		{Phase: "communicate", Label: "IsendOwned", Axis: "msgs", Serial: true},
		{Phase: "communicate", Label: "pack", Axis: "segs"},
		{Phase: "stencil", Label: "stencil", Axis: "blocks"},
	}
	return g
}

func TestProfileBarrierComposition(t *testing.T) {
	cfg := CostConfig{
		Workers: 8,
		Axes:    map[string]int{"msgs": 4, "segs": 6, "blocks": 24},
		Bytes:   map[string]int{"msgs": 512},
	}
	p := ProfileGraph(barrierGraph(), cfg)
	if p.Mode != "barrier" {
		t.Fatalf("mode = %q, want barrier", p.Mode)
	}
	// Work: 4 + 4 + 6 + 24.
	if p.Work != 38 {
		t.Errorf("work = %d, want 38", p.Work)
	}
	// Spans add across phases: communicate = 4 + 4 serial steps + 1 for
	// the pack region = 9; stencil = 1. Total 10.
	if p.Span != 10 {
		t.Errorf("span = %d, want 10", p.Span)
	}
	// Widths max across phases: widest single region is stencil's 24.
	if p.MaxWidth != 24 {
		t.Errorf("max width = %d, want 24", p.MaxWidth)
	}
	if p.Sends != 4 || p.SendBytes != 2048 || p.Recvs != 4 || p.RecvBytes != 2048 {
		t.Errorf("comm = sends %d/%dB recvs %d/%dB, want 4/2048B each",
			p.Sends, p.SendBytes, p.Recvs, p.RecvBytes)
	}
	// The synthetic regions appear as nodes so the golden pins them.
	var sawPack, sawStencil bool
	for _, c := range p.Nodes {
		switch c.ID {
		case "communicate/pack":
			sawPack = c.Kind == "par" && c.Count == 6
		case "stencil/stencil":
			sawStencil = c.Kind == "par" && c.Count == 24
		}
	}
	if !sawPack || !sawStencil {
		t.Errorf("synthetic par regions missing (pack=%v stencil=%v): %+v",
			sawPack, sawStencil, p.Nodes)
	}
}

// TestProfileOneWorkerSerialisesRegions pins how one loop driver graph
// stands for both loop variants: at Workers 1 (the MPI-only rank) every
// region runs on the only thread, so the span is the sum of all instance
// counts and nothing is ever concurrent — with no directive changed.
func TestProfileOneWorkerSerialisesRegions(t *testing.T) {
	cfg := CostConfig{Workers: 1, Axes: map[string]int{"msgs": 4, "segs": 6, "blocks": 24}}
	p := ProfileGraph(barrierGraph(), cfg)
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

// TestProfileCommVolumeScales pins the surface-to-volume accounting: the
// byte volume is linear in both the message count and the per-message
// payload, which is exactly what a golden diff catches when a config
// change regresses the communication volume.
func TestProfileCommVolumeScales(t *testing.T) {
	base := CostConfig{Workers: 4, Axes: map[string]int{"msgs": 4, "segs": 8, "blocks": 10},
		Bytes: map[string]int{"msgs": 1024}}
	doubledMsgs := CostConfig{Workers: 4, Axes: map[string]int{"msgs": 8, "segs": 8, "blocks": 10},
		Bytes: map[string]int{"msgs": 1024}}
	fatterMsgs := CostConfig{Workers: 4, Axes: map[string]int{"msgs": 4, "segs": 8, "blocks": 10},
		Bytes: map[string]int{"msgs": 4096}}

	b := ProfileGraph(dagGraph(), base)
	d := ProfileGraph(dagGraph(), doubledMsgs)
	f := ProfileGraph(dagGraph(), fatterMsgs)
	if d.SendBytes != 2*b.SendBytes || d.Recvs != 2*b.Recvs {
		t.Errorf("doubling msgs: sends %d -> %dB, recvs %d -> %d", b.SendBytes, d.SendBytes, b.Recvs, d.Recvs)
	}
	if f.SendBytes != 4*b.SendBytes || f.Sends != b.Sends {
		t.Errorf("quadrupling payload: bytes %d -> %d, sends %d -> %d",
			b.SendBytes, f.SendBytes, b.Sends, f.Sends)
	}
}

func TestProfileWarnings(t *testing.T) {
	g := dagGraph()
	g.pars = append(g.pars, parSpec{Phase: "communicate", Label: "recv", Axis: "other"})
	cfg := CostConfig{Workers: 4, Axes: map[string]int{"msgs": 4, "segs": 8}} // blocks missing
	p := ProfileGraph(g, cfg)
	var dup, missing bool
	for _, w := range p.Warnings {
		if strings.Contains(w, "duplicate //amr:par label recv") {
			dup = true
		}
		if strings.Contains(w, "axis blocks has no count") {
			missing = true
		}
	}
	if !dup || !missing {
		t.Errorf("warnings missing (dup=%v missing=%v): %v", dup, missing, p.Warnings)
	}
	// Warned nodes fall back to count 1 and the profile stays usable.
	if p.Work != 4+8+4+8+1 {
		t.Errorf("work = %d, want 25", p.Work)
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
	cfg := CostConfig{Workers: 4, Axes: map[string]int{"msgs": 2, "segs": 3, "blocks": 4},
		Bytes: map[string]int{"msgs": 100}}
	p := ProfileGraph(dagGraph(), cfg)
	txt := p.Text()
	for _, want := range []string{
		"driver toy-dataflow\n",
		"mode dataflow\n",
		"workers 4\n",
		"axes blocks=4 msgs=2 segs=3\n",
		"comm sends=2/200B recvs=2/200B collectives=0/0B\n",
		"  communicate/recv task axis=msgs count=2\n",
	} {
		if !strings.Contains(txt, want) {
			t.Errorf("golden text missing %q:\n%s", want, txt)
		}
	}
	// JSON round-trips the same numbers.
	js := p.JSON()
	if !strings.Contains(js, `"driver": "toy-dataflow"`) || !strings.Contains(js, `"send_bytes": 200`) {
		t.Errorf("JSON form missing fields:\n%s", js)
	}
}
