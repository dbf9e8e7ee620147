package analysis

import (
	"fmt"
	"sort"
)

// graphlint checks a recorded driver graph: the label-level dependences
// within a pass are acyclic, every stage region is written before it is
// read and read after it is written (build checks those two during the
// replay), every message sent is received, and every rank issues the same
// collective sequence. Findings carry the ids graphlint/<rule>.

func graphFinding(g *Graph, rule, format string, args ...any) Finding {
	return Finding{Pos: g.pos(), Analyzer: "graphlint", Rule: rule, Severity: "error",
		Message: fmt.Sprintf(format, args...)}
}

// checkAcyclic verifies that the edges within a pass order the labels: a
// cycle among them means two labels each wait for the other's instances of
// the same stage. Carried edges legitimately point back to an earlier phase.
func (g *Graph) checkAcyclic() []Finding {
	if cyc := g.cycle(); cyc != "" {
		return []Finding{graphFinding(g, "cycle", "driver %s task graph has a dependency cycle through %s", g.Driver, cyc)}
	}
	return nil
}

// cycle returns a node on a cycle of the forward edges, or "".
func (g *Graph) cycle() string {
	order, ok := g.topoOrder()
	if ok {
		return ""
	}
	done := make(map[string]bool, len(order))
	for _, i := range order {
		done[g.Nodes[i].ID] = true
	}
	for _, n := range g.Nodes {
		if !done[n.ID] {
			return n.ID
		}
	}
	return ""
}

// topoOrder sorts the nodes along the forward edges (Kahn's algorithm, in
// node order among the ready ones); ok is false when a cycle leaves some
// out.
func (g *Graph) topoOrder() (order []int, ok bool) {
	idx := make(map[string]int, len(g.Nodes))
	for i, n := range g.Nodes {
		idx[n.ID] = i
	}
	indeg := make([]int, len(g.Nodes))
	succs := make([][]int, len(g.Nodes))
	for _, e := range g.Edges {
		f, fok := idx[e.From]
		t, tok := idx[e.To]
		if e.Carried || !fok || !tok {
			continue
		}
		succs[f] = append(succs[f], t)
		indeg[t]++
	}
	for len(order) < len(g.Nodes) {
		next := -1
		for i := range g.Nodes {
			if indeg[i] == 0 {
				next = i
				break
			}
		}
		if next < 0 {
			return order, false
		}
		indeg[next] = -1
		order = append(order, next)
		for _, s := range succs[next] {
			indeg[s]--
		}
	}
	return order, true
}

// checkPairs matches the run's sends and receives by (source, destination,
// tag): a send nobody receives is a message left in the transport, a
// receive nobody sends to is a hang the run only survived by luck.
func (r *recorder) checkPairs(g *Graph) []Finding {
	var out []Finding
	keys := make(map[[3]int]bool)
	for k := range r.sends {
		keys[k] = true
	}
	for k := range r.recvs {
		keys[k] = true
	}
	sorted := make([][3]int, 0, len(keys))
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Slice(sorted, func(i, j int) bool {
		a, b := sorted[i], sorted[j]
		for x := range a {
			if a[x] != b[x] {
				return a[x] < b[x]
			}
		}
		return false
	})
	for _, k := range sorted {
		sends, recvs := r.sends[k], r.recvs[k]
		switch {
		case sends > recvs:
			out = append(out, graphFinding(g, "unpaired-send",
				"rank %d sends %d message(s) to rank %d with tag %d that no receive matches (unmatched message)",
				k[0], sends-recvs, k[1], k[2]))
		case recvs > sends:
			out = append(out, graphFinding(g, "unpaired-recv",
				"rank %d posts %d receive(s) from rank %d with tag %d that no send matches (unmatched receive)",
				k[1], recvs-sends, k[0], k[2]))
		}
	}
	return out
}

// checkCollectives compares every rank's collective sequence with rank
// 0's: a rank that skips or reorders one deadlocks the others, or pairs
// unrelated reductions.
func (r *recorder) checkCollectives(g *Graph) []Finding {
	seqOf := func(l *rankLog) []string {
		var seq []string
		for _, ev := range l.events {
			if ev.kind == "collective" {
				seq = append(seq, ev.label)
			}
		}
		return seq
	}
	ref := seqOf(r.ranks[0])
	var out []Finding
	for _, l := range r.ranks[1:] {
		seq := seqOf(l)
		i := 0
		for i < len(seq) && i < len(ref) && seq[i] == ref[i] {
			i++
		}
		if i == len(seq) && i == len(ref) {
			continue
		}
		at := func(s []string) string {
			if i < len(s) {
				return s[i]
			}
			return "nothing"
		}
		out = append(out, graphFinding(g, "collective-sequence",
			"rank %d diverges from rank 0 at collective %d: %s where rank 0 issues %s (collective-mismatch deadlock)",
			l.rank, i+1, at(seq), at(ref)))
	}
	return out
}
