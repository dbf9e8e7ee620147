package analysis

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// This file is perflint's static cost model: it evaluates an extracted
// driver graph under concrete instance counts (a CostConfig) into a
// Profile — the work-span numbers of the classic parallelism model plus
// the per-rank communication volume. One graph iteration is one pipeline
// pass (a stage for the main-loop phases; regrid phases ride along with
// their own axes), and every number is per rank.
//
// Definitions, following the work-span model:
//
//   - Work is the total number of task instances: the sum of every
//     node's instance count.
//   - Span is the critical-path length in task instances — the longest
//     dependence chain, where a parallel region contributes 1 (all its
//     instances can run at once) and a serial region contributes its
//     full count.
//   - MaxWidth is the largest set of instances that can execute
//     concurrently: a maximum-weight antichain of the dependence DAG,
//     where a parallel node weighs its instance count and a serial node
//     weighs 1.
//   - AvgWidth is Work/Span and SpeedupBound is min(Workers, Work/Span):
//     no schedule on Workers cores beats it.
//
// Graphs whose parallelism the extractor materialised as task nodes (the
// data-flow drivers) are evaluated over the whole dependence DAG, so
// independent phases overlap — exactly the parallelism the paper's model
// exposes. Graphs without task nodes (fork-join, MPI-only) compose by
// phase barriers: spans add, widths max — the fork-join execution model.

// CostConfig supplies the concrete per-rank instance counts a symbolic
// graph is evaluated under.
type CostConfig struct {
	// Workers is the core count per rank, bounding SpeedupBound.
	Workers int `json:"workers"`
	// Axes maps an //amr:par axis name to its per-rank instance count
	// (blocks, segs, msgs, ...).
	Axes map[string]int `json:"axes"`
	// Bytes maps an axis name to the payload bytes of one message whose
	// node scales by that axis; this is where surface-to-volume scaling
	// enters (a ghost-face message carries face cells, a block-exchange
	// message carries a whole block).
	Bytes map[string]int `json:"bytes,omitempty"`
	// CollectiveBytes is the payload of one collective.
	CollectiveBytes int `json:"collective_bytes,omitempty"`
}

// NodeCost is one node's evaluation: its resolved axis, instance count
// and scheduling class.
type NodeCost struct {
	ID     string `json:"id"`
	Kind   string `json:"kind"` // node kind, or "par" for a synthetic region
	Axis   string `json:"axis,omitempty"`
	Count  int    `json:"count"`
	Serial bool   `json:"serial,omitempty"`
	Sends  int    `json:"sends,omitempty"` // messages sent per iteration
	Recvs  int    `json:"recvs,omitempty"`

	phase string
	node  *Node // nil for synthetic //amr:par regions
}

// Profile is the static performance profile of one driver graph.
type Profile struct {
	// Name is what the profile is filed under (see ProfileName).
	Name    string         `json:"name"`
	Driver  string         `json:"driver"`
	Mode    string         `json:"mode"` // "dataflow" (whole-DAG) or "barrier" (per-phase)
	Workers int            `json:"workers"`
	Axes    map[string]int `json:"axes"`

	Work         int     `json:"work"`
	Span         int     `json:"span"`
	MaxWidth     int     `json:"max_width"`
	AvgWidth     float64 `json:"avg_width"`
	SpeedupBound float64 `json:"speedup_bound"`

	Sends           int `json:"sends"`
	SendBytes       int `json:"send_bytes"`
	Recvs           int `json:"recvs"`
	RecvBytes       int `json:"recv_bytes"`
	Collectives     int `json:"collectives"`
	CollectiveBytes int `json:"collective_bytes"`

	Nodes    []NodeCost `json:"nodes"`
	Warnings []string   `json:"warnings,omitempty"`
}

// ProfileGraph evaluates one extracted graph under a cost configuration.
func ProfileGraph(g *Graph, cfg CostConfig) *Profile {
	p := &Profile{
		Name:    ProfileName(g.Driver, cfg),
		Driver:  g.Driver,
		Workers: cfg.Workers,
		Axes:    cfg.Axes,
	}
	if p.Workers <= 0 {
		p.Workers = 1
	}
	costs := p.evalNodes(g, cfg)

	for i := range costs {
		c := &costs[i]
		p.Work += c.Count
		if c.Sends > 0 {
			p.Sends += c.Sends
			p.SendBytes += c.Sends * cfg.Bytes[c.Axis]
		}
		if c.Recvs > 0 {
			p.Recvs += c.Recvs
			p.RecvBytes += c.Recvs * cfg.Bytes[c.Axis]
		}
		if c.Kind == "collective" {
			p.Collectives++
			p.CollectiveBytes += cfg.CollectiveBytes
		}
	}

	if hasTaskNodes(g) {
		p.Mode = "dataflow"
		p.Span, p.MaxWidth = dagCost(g, costs)
	} else {
		p.Mode = "barrier"
		p.Span, p.MaxWidth = barrierCost(g, costs)
	}
	if p.Span > 0 {
		p.AvgWidth = float64(p.Work) / float64(p.Span)
	}
	p.SpeedupBound = p.AvgWidth
	if w := float64(p.Workers); p.SpeedupBound > w {
		p.SpeedupBound = w
	}
	p.Nodes = costs
	return p
}

// evalNodes resolves every node (and synthetic //amr:par region) to its
// axis, instance count and scheduling class. Resolution order: an
// //amr:par directive whose label matches the node's label within its
// phase wins; otherwise task nodes default to one parallel instance and
// everything else to one serial step. Par labels that match no node
// become synthetic parallel-region nodes of their phase. On one worker
// every region is serial, whatever its directive says: the same loop
// driver graph is the MPI-only rank at Workers 1 and the fork-join rank
// above, and the `serial` keyword is left for what stays on the master
// thread at any worker count.
func (p *Profile) evalNodes(g *Graph, cfg CostConfig) []NodeCost {
	parFor := make(map[string]*parSpec)
	matched := make(map[string]bool)
	for i := range g.pars {
		ps := &g.pars[i]
		key := ps.Phase + "\x00" + ps.Label
		if parFor[key] != nil {
			p.warnf("duplicate //amr:par label %s in phase %s", ps.Label, ps.Phase)
			continue
		}
		parFor[key] = ps
	}
	countOf := func(axis string) int {
		if axis == "" {
			return 1
		}
		n, ok := cfg.Axes[axis]
		if !ok {
			p.warnf("axis %s has no count in the configuration (using 1)", axis)
			return 1
		}
		if n < 1 {
			return 1
		}
		return n
	}

	var costs []NodeCost
	for _, n := range g.Nodes {
		c := NodeCost{ID: n.ID, Kind: n.Kind, Count: 1, Serial: n.Kind != "task", phase: n.Phase, node: n}
		if ps := parFor[n.Phase+"\x00"+n.Label]; ps != nil {
			matched[ps.Phase+"\x00"+ps.Label] = true
			c.Axis = ps.Axis
			c.Count = countOf(ps.Axis)
			c.Serial = ps.Serial || p.Workers == 1
		}
		sends, recvs := false, false
		for _, ev := range n.Comm {
			switch ev.Kind {
			case "send":
				sends = true
			case "recv":
				recvs = true
			}
		}
		if sends {
			c.Sends = c.Count
		}
		if recvs {
			c.Recvs = c.Count
		}
		costs = append(costs, c)
	}
	for i := range g.pars {
		ps := &g.pars[i]
		key := ps.Phase + "\x00" + ps.Label
		if matched[key] || parFor[key] != ps {
			continue
		}
		costs = append(costs, NodeCost{
			ID: ps.Phase + "/" + ps.Label, Kind: "par",
			Axis: ps.Axis, Count: countOf(ps.Axis), Serial: ps.Serial || p.Workers == 1,
			phase: ps.Phase,
		})
	}
	return costs
}

func (p *Profile) warnf(format string, args ...any) {
	p.Warnings = append(p.Warnings, fmt.Sprintf(format, args...))
}

func hasTaskNodes(g *Graph) bool {
	for _, n := range g.Nodes {
		if n.Kind == "task" {
			return true
		}
	}
	return false
}

// spanWeight is a node's contribution to a dependence chain: a parallel
// region is one step regardless of width, a serial region is one step
// per instance.
func spanWeight(c *NodeCost) int {
	if c.Serial {
		return c.Count
	}
	return 1
}

// widthWeight is a node's contribution to concurrent occupancy: every
// instance of a parallel region, one for a serial one.
func widthWeight(c *NodeCost) int {
	if c.Serial {
		return 1
	}
	return c.Count
}

// dagCost evaluates a task-bearing graph over its whole dependence DAG:
// span is the weighted longest path, width the maximum-weight antichain
// under reachability. Extraction emits edges forward in node order (the
// acyclicity invariant graphlint pins), so a single sweep suffices for
// the longest path; synthetic par nodes are isolated vertices.
func dagCost(g *Graph, costs []NodeCost) (span, width int) {
	idx := make(map[string]int, len(costs))
	for i := range costs {
		idx[costs[i].ID] = i
	}
	n := len(costs)
	reach := make([][]bool, n)
	for i := range reach {
		reach[i] = make([]bool, n)
	}
	preds := make([][]int, n)
	for _, e := range g.Edges {
		f, fok := idx[e.From]
		t, tok := idx[e.To]
		if !fok || !tok || f == t {
			continue
		}
		preds[t] = append(preds[t], f)
	}

	dist := make([]int, n)
	for i := 0; i < n; i++ {
		longest := 0
		for _, f := range preds[i] {
			if dist[f] > longest {
				longest = dist[f]
			}
			reach[f][i] = true
			for j := 0; j < n; j++ {
				if reach[j][f] {
					reach[j][i] = true
				}
			}
		}
		dist[i] = longest + spanWeight(&costs[i])
		if dist[i] > span {
			span = dist[i]
		}
	}

	weights := make([]int, n)
	for i := range costs {
		weights[i] = widthWeight(&costs[i])
	}
	width = maxWeightAntichain(weights, func(i, j int) bool { return reach[i][j] || reach[j][i] })
	return span, width
}

// barrierCost composes a graph without task nodes phase by phase, the
// fork-join execution model: a barrier ends every phase, so spans add
// and widths max. Within one phase the master thread issues the serial
// nodes and forks each parallel region, so the phase span is the sum of
// serial steps plus one step per parallel region, and the phase width is
// its widest single region.
func barrierCost(g *Graph, costs []NodeCost) (span, width int) {
	width = 1
	byPhase := make(map[string][]*NodeCost)
	for i := range costs {
		byPhase[costs[i].phase] = append(byPhase[costs[i].phase], &costs[i])
	}
	for _, ph := range g.Phases {
		phaseSpan := 0
		for _, c := range byPhase[ph.Name] {
			phaseSpan += spanWeight(c)
			if w := widthWeight(c); w > width {
				width = w
			}
		}
		span += phaseSpan
	}
	return span, width
}

// maxWeightAntichain finds the heaviest set of pairwise-incomparable
// vertices by branch and bound over the comparability relation. Driver
// graphs stay well under fifty nodes, so exact search is instant; the
// weight-descending order makes the remaining-weight bound tight.
func maxWeightAntichain(weights []int, comparable func(i, j int) bool) int {
	order := make([]int, len(weights))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return weights[order[a]] > weights[order[b]] })
	suffix := make([]int, len(order)+1)
	for i := len(order) - 1; i >= 0; i-- {
		suffix[i] = suffix[i+1] + weights[order[i]]
	}
	best := 0
	var chosen []int
	var visit func(at, have int)
	visit = func(at, have int) {
		if have > best {
			best = have
		}
		if at == len(order) || have+suffix[at] <= best {
			return
		}
		v := order[at]
		ok := true
		for _, c := range chosen {
			if comparable(v, c) {
				ok = false
				break
			}
		}
		if ok {
			chosen = append(chosen, v)
			visit(at+1, have+weights[v])
			chosen = chosen[:len(chosen)-1]
		}
		visit(at+1, have)
	}
	visit(0, 0)
	return best
}

// Text renders the canonical golden form of a profile. Like the graph
// goldens it carries no positions, so only real model changes churn it.
func (p *Profile) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "driver %s\n", p.Driver)
	fmt.Fprintf(&b, "mode %s\n", p.Mode)
	fmt.Fprintf(&b, "workers %d\n", p.Workers)
	axes := make([]string, 0, len(p.Axes))
	for a := range p.Axes {
		axes = append(axes, a)
	}
	sort.Strings(axes)
	b.WriteString("axes")
	for _, a := range axes {
		fmt.Fprintf(&b, " %s=%d", a, p.Axes[a])
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "work %d\n", p.Work)
	fmt.Fprintf(&b, "span %d\n", p.Span)
	fmt.Fprintf(&b, "width max=%d avg=%.2f\n", p.MaxWidth, p.AvgWidth)
	fmt.Fprintf(&b, "speedup-bound %.2f\n", p.SpeedupBound)
	fmt.Fprintf(&b, "comm sends=%d/%dB recvs=%d/%dB collectives=%d/%dB\n",
		p.Sends, p.SendBytes, p.Recvs, p.RecvBytes, p.Collectives, p.CollectiveBytes)
	b.WriteString("nodes\n")
	for i := range p.Nodes {
		c := &p.Nodes[i]
		fmt.Fprintf(&b, "  %s %s", c.ID, c.Kind)
		if c.Axis != "" {
			fmt.Fprintf(&b, " axis=%s", c.Axis)
		}
		fmt.Fprintf(&b, " count=%d", c.Count)
		if c.Serial {
			b.WriteString(" serial")
		}
		b.WriteByte('\n')
	}
	for _, w := range p.Warnings {
		fmt.Fprintf(&b, "warning %s\n", w)
	}
	return b.String()
}

// JSON renders the profile as one indented JSON object.
func (p *Profile) JSON() string {
	out, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return "{}" // the model contains no unmarshalable values
	}
	return string(out) + "\n"
}
