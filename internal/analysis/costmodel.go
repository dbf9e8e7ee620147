package analysis

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// This file is perflint's cost model: it evaluates a recorded driver graph
// into a Profile — the work-span numbers of the classic parallelism model
// plus the point-to-point and collective operations. One evaluation is one
// pass through the pipeline with every node at its recorded per-invocation
// count, on the busiest rank.
//
// Definitions, following the work-span model:
//
//   - Work is the total number of instances: the sum of every node's count
//     (and, on a loop driver, of the master's sends and receives).
//   - Span is the critical-path length in instances — the longest
//     dependence chain, where a parallel node contributes one step per
//     region and a serial one its full count.
//   - MaxWidth is the largest set of instances that can execute
//     concurrently: a maximum-weight antichain of the dependence DAG,
//     where a parallel node weighs its instances per region and a serial
//     node weighs 1.
//   - AvgWidth is Work/Span and SpeedupBound is min(Workers, Work/Span):
//     no schedule on Workers cores beats it.
//
// Graphs with task nodes (the data-flow drivers) are evaluated over the
// pass's whole dependence DAG, so independent phases overlap — exactly the
// parallelism the paper's model exposes; their messages are sent and
// received by tasks. Graphs without (fork-join, MPI-only) compose by phase
// barriers: spans add, widths max, and the master's sends and receives are
// serial steps of their phase. On one worker every node is serial.

// NodeCost is one node's evaluation.
type NodeCost struct {
	ID      string `json:"id"`
	Kind    string `json:"kind"`
	Count   int    `json:"count"`
	Regions int    `json:"regions,omitempty"`
	Serial  bool   `json:"serial,omitempty"`
}

// Profile is the performance profile of one driver graph.
type Profile struct {
	// Name is what the profile is filed under (see ProfileName).
	Name    string `json:"name"`
	Driver  string `json:"driver"`
	Mode    string `json:"mode"` // "dataflow" (whole DAG) or "barrier" (per phase)
	Workers int    `json:"workers"`

	Work         int     `json:"work"`
	Span         int     `json:"span"`
	MaxWidth     int     `json:"max_width"`
	AvgWidth     float64 `json:"avg_width"`
	SpeedupBound float64 `json:"speedup_bound"`

	Sends       int `json:"sends"`
	Recvs       int `json:"recvs"`
	Collectives int `json:"collectives"`

	Nodes []NodeCost `json:"nodes"`
}

// ProfileName is the name a profile at the given worker count is filed
// under: the driver's, with the worker count appended when the driver has
// more than one profile to tell apart.
func ProfileName(driver string, workers int, several bool) string {
	if several {
		return fmt.Sprintf("%s-w%d", driver, workers)
	}
	return driver
}

// ProfileGraph evaluates a recorded graph for a rank of the given worker
// count.
func ProfileGraph(g *Graph, workers int) *Profile {
	p := &Profile{Name: g.Driver, Driver: g.Driver, Workers: max(workers, 1)}
	for _, n := range g.Nodes {
		c := NodeCost{ID: n.ID, Kind: n.Kind, Count: n.Count, Regions: n.Regions,
			Serial: n.Kind == "wait" || n.Kind == "collective" || p.Workers == 1}
		p.Work += c.Count
		if c.Kind == "collective" {
			p.Collectives += c.Count
		}
		p.Nodes = append(p.Nodes, c)
	}
	for _, ph := range g.Phases {
		p.Sends += ph.Sends
		p.Recvs += ph.Recvs
	}
	if hasTaskNodes(g) {
		p.Mode = "dataflow"
		p.Span, p.MaxWidth = dagCost(g, p.Nodes)
	} else {
		p.Mode = "barrier"
		p.Work += p.Sends + p.Recvs
		p.Span, p.MaxWidth = barrierCost(g, p.Nodes)
	}
	if p.Span > 0 {
		p.AvgWidth = float64(p.Work) / float64(p.Span)
	}
	p.SpeedupBound = min(p.AvgWidth, float64(p.Workers))
	return p
}

func hasTaskNodes(g *Graph) bool {
	for _, n := range g.Nodes {
		if n.Kind == "task" {
			return true
		}
	}
	return false
}

// spanWeight is a node's contribution to a dependence chain: one step per
// parallel region, one per instance of a serial node.
func spanWeight(c *NodeCost) int {
	if c.Serial {
		return c.Count
	}
	return max(c.Regions, 1)
}

// widthWeight is a node's contribution to concurrent occupancy: the
// instances of one of its parallel regions, one for a serial node.
func widthWeight(c *NodeCost) int {
	if c.Serial {
		return 1
	}
	r := max(c.Regions, 1)
	return (c.Count + r - 1) / r
}

// dagCost evaluates a task-bearing graph over its dependence DAG within a
// pass (the edges that are not carried): span is the weighted longest path,
// width the maximum-weight antichain under reachability.
func dagCost(g *Graph, costs []NodeCost) (span, width int) {
	order, _ := g.topoOrder() // graphlint reports a cycle; its nodes drop out here
	idx := make(map[string]int, len(g.Nodes))
	for i, n := range g.Nodes {
		idx[n.ID] = i
	}
	n := len(costs)
	preds := make([][]int, n)
	for _, e := range g.Edges {
		if !e.Carried {
			preds[idx[e.To]] = append(preds[idx[e.To]], idx[e.From])
		}
	}
	reach := make([][]bool, n)
	for i := range reach {
		reach[i] = make([]bool, n)
	}
	dist := make([]int, n)
	for _, i := range order {
		longest := 0
		for _, f := range preds[i] {
			longest = max(longest, dist[f])
			reach[f][i] = true
			for j := 0; j < n; j++ {
				if reach[j][f] {
					reach[j][i] = true
				}
			}
		}
		dist[i] = longest + spanWeight(&costs[i])
		span = max(span, dist[i])
	}
	weights := make([]int, n)
	for i := range costs {
		weights[i] = widthWeight(&costs[i])
	}
	width = maxWeightAntichain(weights, func(i, j int) bool { return reach[i][j] || reach[j][i] })
	return span, width
}

// barrierCost composes a graph without task nodes phase by phase, the
// fork-join execution model: a barrier ends every phase, so spans add and
// widths max. Within a phase the master issues the serial steps — its
// sends and receives among them — and forks each parallel region.
func barrierCost(g *Graph, costs []NodeCost) (span, width int) {
	width = 1
	for _, ph := range g.Phases {
		span += ph.Sends + ph.Recvs
	}
	for i := range costs {
		span += spanWeight(&costs[i])
		width = max(width, widthWeight(&costs[i]))
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

// Text renders the canonical golden form of a profile.
func (p *Profile) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "driver %s\n", p.Driver)
	fmt.Fprintf(&b, "mode %s\n", p.Mode)
	fmt.Fprintf(&b, "workers %d\n", p.Workers)
	fmt.Fprintf(&b, "work %d\n", p.Work)
	fmt.Fprintf(&b, "span %d\n", p.Span)
	fmt.Fprintf(&b, "width max=%d avg=%.2f\n", p.MaxWidth, p.AvgWidth)
	fmt.Fprintf(&b, "speedup-bound %.2f\n", p.SpeedupBound)
	fmt.Fprintf(&b, "comm sends=%d recvs=%d collectives=%d\n", p.Sends, p.Recvs, p.Collectives)
	b.WriteString("nodes\n")
	for i := range p.Nodes {
		c := &p.Nodes[i]
		fmt.Fprintf(&b, "  %s %s count=%d", c.ID, c.Kind, c.Count)
		if c.Regions > 0 {
			fmt.Fprintf(&b, " regions=%d", c.Regions)
		}
		if c.Serial {
			b.WriteString(" serial")
		}
		b.WriteByte('\n')
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
