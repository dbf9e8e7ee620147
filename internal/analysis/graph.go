package analysis

import (
	"encoding/json"
	"fmt"
	"go/token"
	"slices"
	"sort"
	"strings"

	"miniamr/internal/task"
)

// This file holds the recorded graph model: the per-driver task graph at
// the granularity of labels — a node is every task (taskwait, collective,
// parallel region) of one label in one phase —, the dependence edges
// between labels, and the graph's emission as text (the goldens), DOT and
// JSON. The edges come from replaying each rank's recorded accesses with
// the runtime's own rule: a read depends on the region's last writer, a
// write on the readers since that write, or on the writer itself.

// RegAccess is one declared access of a node: a mode on a region class.
type RegAccess struct {
	Mode   string `json:"mode"` // "in", "out" or "inout"
	Region string `json:"region"`
	Many   bool   `json:"many,omitempty"` // one instance names several regions of the class
}

// Node is every instance of one label in one phase.
type Node struct {
	ID    string `json:"id"`
	Phase string `json:"phase"`
	Kind  string `json:"kind"` // "task", "wait", "collective" or "par" (a loop region)
	Label string `json:"label"`
	// Count is the instances per invocation of the phase: the most any
	// rank ran in one invocation.
	Count int `json:"count"`
	// Regions is, for a par node, the parallel regions its instances form
	// per invocation (the most of any rank and invocation).
	Regions  int         `json:"regions,omitempty"`
	Accesses []RegAccess `json:"accesses,omitempty"`
}

// Edge is one dependence between labels. Kind "flow" is a read after a
// write, "anti" a write after a read, "waw" a write after a write and
// "seq" the program order of consecutive taskwaits and collectives in one
// phase. A carried edge reaches into a later pass through the pipeline
// (the next stage's tasks).
type Edge struct {
	From    string `json:"from"`
	To      string `json:"to"`
	Kind    string `json:"kind"`
	Region  string `json:"region,omitempty"`
	Carried bool   `json:"carried,omitempty"`
}

// Phase is one stage hook of the main loop, with the point-to-point
// operations its invocations issued (the most of any rank and invocation).
type Phase struct {
	Name  string `json:"name"`
	Seq   int    `json:"seq"`
	Sends int    `json:"sends,omitempty"`
	Recvs int    `json:"recvs,omitempty"`
}

// RegionClass is one class of dependency regions. A state class carries
// data from one pass to a later one (a carried flow edge goes through it);
// every other class is per-stage: produced and consumed within a pass.
type RegionClass struct {
	Name string `json:"name"`
	Kind string `json:"kind"` // "state" or "stage"
}

// Graph is the recorded task graph of one driver.
type Graph struct {
	Driver  string        `json:"driver"`
	Variant string        `json:"variant"`
	Ranks   int           `json:"ranks"`
	Workers int           `json:"workers"`
	Regions []RegionClass `json:"regions,omitempty"`
	Phases  []Phase       `json:"phases"`
	Nodes   []*Node       `json:"nodes"`
	Edges   []Edge        `json:"edges"`

	// wide lists the labels whose instances wrote one stage region more
	// than once within a pass (see perf-wide-key).
	wide []labelClass
}

// labelClass names a task label's access to a region class.
type labelClass struct{ label, class string }

// pos places a finding on a graph: recorded graphs have no source lines.
func (g *Graph) pos() token.Position { return token.Position{Filename: g.Driver} }

// instance is one recorded event placed on its label node.
type instance struct {
	node int
	pass int
	task bool
}

// regState is a region's replay state: its last writer, the readers since,
// and whether that write was a pure out no reader has consumed yet.
type regState struct {
	writer  *instance
	readers []*instance
	unread  bool
	class   string
	label   string // the unread write's label, for a dead-write finding
}

// build aggregates the rank logs of a run into its graph and checks it.
func build(r Recording, rec *recorder) (*Graph, []Finding) {
	g := &Graph{Driver: r.Name, Variant: string(r.Variant), Ranks: r.Ranks, Workers: r.Workers}
	keep := func(phase string) bool { return len(r.Phases) == 0 || slices.Contains(r.Phases, phase) }
	nodeIdx := map[string]int{}
	phases := map[string]*Phase{}
	nodeOf := func(phase string, ev *event) int {
		id := phase + "/" + ev.label
		if i, ok := nodeIdx[id]; ok {
			return i
		}
		nodeIdx[id] = len(g.Nodes)
		g.Nodes = append(g.Nodes, &Node{ID: id, Phase: phase, Kind: ev.kind, Label: ev.label})
		return len(g.Nodes) - 1
	}
	edges := map[Edge]bool{}
	addEdge := func(from, to *instance, kind, class string) {
		if from.node == to.node {
			return
		}
		edges[Edge{From: g.Nodes[from.node].ID, To: g.Nodes[to.node].ID, Kind: kind,
			Region: class, Carried: from.pass < to.pass}] = true
	}
	carried := map[string]bool{} // region classes with a carried flow edge
	var orphans, deads, wides []labelClass

	for _, l := range rec.ranks {
		// Counts per invocation, folded into the nodes and phases below.
		type slot struct{ node, inv int }
		counts := map[slot]int{}
		for _, inv := range l.invs {
			if keep(inv.phase) && inv.sends+inv.recvs > 0 {
				ph := phaseOf(phases, inv.phase)
				ph.Sends, ph.Recvs = max(ph.Sends, inv.sends), max(ph.Recvs, inv.recvs)
			}
		}
		regions := map[task.Region]*regState{}
		var lastStep *instance // the phase's last taskwait or collective
		lastInv := -1
		finishRegion := func(st *regState) {
			if st.unread {
				deads = append(deads, labelClass{st.label, st.class})
			}
		}
		for i := range l.events {
			ev := &l.events[i]
			inv := l.invs[ev.inv]
			if ev.kind == "reset" {
				for _, st := range regions {
					finishRegion(st)
				}
				clear(regions)
				continue
			}
			if !keep(inv.phase) {
				continue
			}
			phaseOf(phases, inv.phase)
			n := nodeOf(inv.phase, ev)
			node := g.Nodes[n]
			if ev.kind == "par" {
				node.Count = max(node.Count, ev.count)
				node.Regions = max(node.Regions, ev.runs)
				continue
			}
			counts[slot{n, ev.inv}]++
			node.Count = max(node.Count, counts[slot{n, ev.inv}])
			mergeAccesses(node, ev.accs)
			me := &instance{node: n, pass: inv.pass, task: ev.kind == "task"}
			if ev.inv != lastInv {
				lastStep, lastInv = nil, ev.inv
			}
			if ev.kind != "task" {
				if lastStep != nil {
					addEdge(lastStep, me, "seq", "")
				}
				lastStep = me
			}
			for _, a := range ev.accs {
				st := regions[a.region]
				if st == nil {
					st = &regState{class: a.class}
					regions[a.region] = st
				}
				reads := a.mode != task.ModeOut
				if st.writer != nil {
					kind := "waw"
					if reads {
						kind = "flow"
						st.unread = false
						if st.writer.pass < me.pass {
							carried[a.class] = true
						}
					}
					addEdge(st.writer, me, kind, a.class)
				} else if reads {
					orphans = append(orphans, labelClass{ev.label, a.class})
				}
				if ev.kind == "wait" {
					continue // a taskwait orders nothing after it in the graph
				}
				if a.mode == task.ModeIn {
					st.readers = append(st.readers, me)
					continue
				}
				for _, rd := range st.readers {
					addEdge(rd, me, "anti", a.class)
				}
				if st.writer != nil && st.writer.task && st.writer.pass == me.pass && st.writer.node == me.node {
					wides = append(wides, labelClass{ev.label, a.class})
				}
				finishRegion(st)
				st.writer, st.readers = me, nil
				st.unread, st.label = a.mode == task.ModeOut, ev.label
			}
		}
		for _, st := range regions {
			finishRegion(st)
		}
	}

	// Region classes in first-use order, state when data crosses passes.
	seen := map[string]bool{}
	for _, n := range g.Nodes {
		for _, a := range n.Accesses {
			if !seen[a.Region] {
				seen[a.Region] = true
				kind := "stage"
				if carried[a.Region] {
					kind = "state"
				}
				g.Regions = append(g.Regions, RegionClass{Name: a.Region, Kind: kind})
			}
		}
	}
	for _, ph := range phases {
		g.Phases = append(g.Phases, *ph)
	}
	sort.Slice(g.Phases, func(i, j int) bool { return g.Phases[i].Seq < g.Phases[j].Seq })
	order := map[string]int{}
	for _, ph := range g.Phases {
		order[ph.Name] = ph.Seq
	}
	sort.SliceStable(g.Nodes, func(i, j int) bool { return order[g.Nodes[i].Phase] < order[g.Nodes[j].Phase] })
	for i, n := range g.Nodes {
		nodeIdx[n.ID] = i
	}
	for e := range edges {
		g.Edges = append(g.Edges, e)
	}
	sort.Slice(g.Edges, func(i, j int) bool {
		a, b := g.Edges[i], g.Edges[j]
		if a.Carried != b.Carried {
			return !a.Carried
		}
		if x, y := nodeIdx[a.From], nodeIdx[b.From]; x != y {
			return x < y
		}
		if x, y := nodeIdx[a.To], nodeIdx[b.To]; x != y {
			return x < y
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return a.Region < b.Region
	})

	var findings []Finding
	stage := func(class string) bool { return !carried[class] }
	report := func(rule, format string, args ...any) {
		findings = append(findings, graphFinding(g, rule, format, args...))
	}
	for _, o := range dedupe(orphans) {
		if stage(o.class) {
			report("orphan-read", "task %s reads stage region %s that no earlier task writes (read-before-write: a dependency edge is missing or the producer was dropped)", o.label, o.class)
		}
	}
	for _, d := range dedupe(deads) {
		if stage(d.class) {
			report("dead-write", "task %s writes stage region %s that no later task reads (dead write: the consumer edge was dropped or the out declaration is stale)", d.label, d.class)
		}
	}
	for _, w := range dedupe(wides) {
		if stage(w.class) {
			g.wide = append(g.wide, w)
		}
	}
	findings = append(findings, g.checkAcyclic()...)
	findings = append(findings, rec.checkPairs(g)...)
	findings = append(findings, rec.checkCollectives(g)...)
	return g, findings
}

func phaseOf(phases map[string]*Phase, name string) *Phase {
	ph := phases[name]
	if ph == nil {
		ph = &Phase{Name: name, Seq: phaseSeq(name)}
		phases[name] = ph
	}
	return ph
}

// mergeAccesses folds one instance's accesses into its label's.
func mergeAccesses(n *Node, accs []regAccess) {
	for i, a := range accs {
		ra := RegAccess{Mode: modeName(a.mode), Region: a.class}
		for j, b := range accs {
			if j != i && b.mode == a.mode && b.class == a.class {
				ra.Many = true
			}
		}
		at := slices.IndexFunc(n.Accesses, func(x RegAccess) bool { return x.Mode == ra.Mode && x.Region == ra.Region })
		if at < 0 {
			n.Accesses = append(n.Accesses, ra)
		} else if ra.Many {
			n.Accesses[at].Many = true
		}
	}
}

func modeName(m task.Mode) string {
	switch m {
	case task.ModeIn:
		return "in"
	case task.ModeOut:
		return "out"
	}
	return "inout"
}

// dedupe sorts (label, class) pairs and drops the repeats.
func dedupe(list []labelClass) []labelClass {
	slices.SortFunc(list, func(a, b labelClass) int {
		return strings.Compare(a.label+"\x00"+a.class, b.label+"\x00"+b.class)
	})
	return slices.Compact(list)
}

// Text renders the canonical golden form: the region classes, the phases
// in pipeline order with their nodes, then the edges.
func (g *Graph) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "driver %s\n", g.Driver)
	fmt.Fprintf(&b, "recorded variant=%s ranks=%d workers=%d\n", g.Variant, g.Ranks, g.Workers)
	for _, rc := range g.Regions {
		fmt.Fprintf(&b, "region %s %s\n", rc.Name, rc.Kind)
	}
	for _, ph := range g.Phases {
		fmt.Fprintf(&b, "phase %s seq=%d\n", ph.Name, ph.Seq)
		if ph.Sends+ph.Recvs > 0 {
			fmt.Fprintf(&b, "  comm sends=%d recvs=%d\n", ph.Sends, ph.Recvs)
		}
		for _, n := range g.Nodes {
			if n.Phase != ph.Name {
				continue
			}
			fmt.Fprintf(&b, "  %s %s count=%d", n.Kind, n.ID, n.Count)
			if n.Regions > 0 {
				fmt.Fprintf(&b, " regions=%d", n.Regions)
			}
			b.WriteByte('\n')
			for _, a := range n.Accesses {
				many := ""
				if a.Many {
					many = " many"
				}
				fmt.Fprintf(&b, "    %-5s %s%s\n", a.Mode, a.Region, many)
			}
		}
	}
	fmt.Fprintf(&b, "edges\n")
	for _, e := range g.Edges {
		fmt.Fprintf(&b, "  %s -> %s %s", e.From, e.To, e.Kind)
		if e.Region != "" {
			fmt.Fprintf(&b, " %s", e.Region)
		}
		if e.Carried {
			b.WriteString(" carried")
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// DOT renders the graph for graphviz, one cluster per phase; carried
// edges are drawn in grey.
func (g *Graph) DOT() string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n", g.Driver)
	b.WriteString("  rankdir=LR;\n  node [shape=box, fontsize=10];\n")
	for pi, ph := range g.Phases {
		fmt.Fprintf(&b, "  subgraph cluster_%d {\n    label=%q;\n", pi, ph.Name)
		for _, n := range g.Nodes {
			if n.Phase != ph.Name {
				continue
			}
			shape := ""
			switch n.Kind {
			case "collective":
				shape = ", shape=hexagon"
			case "wait":
				shape = ", shape=octagon"
			case "par":
				shape = ", shape=box3d"
			}
			fmt.Fprintf(&b, "    %q [label=\"%s x%d\"%s];\n", n.ID, n.Label, n.Count, shape)
		}
		b.WriteString("  }\n")
	}
	for _, e := range g.Edges {
		attr := ""
		switch e.Kind {
		case "anti":
			attr = ", style=dashed"
		case "waw":
			attr = ", style=dotted"
		}
		if e.Carried || e.Kind == "seq" {
			attr += ", color=gray"
		}
		fmt.Fprintf(&b, "  %q -> %q [label=%q%s];\n", e.From, e.To, e.Region, attr)
	}
	b.WriteString("}\n")
	return b.String()
}

// JSON renders the graph as one indented JSON object.
func (g *Graph) JSON() string {
	out, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return "{}" // the model contains no unmarshalable values
	}
	return string(out) + "\n"
}
