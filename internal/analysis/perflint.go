package analysis

import "fmt"

// PerfLint flags dependence structure in a recorded task-bearing graph
// that narrows it without buying correctness. Its rules keep the ids
// perflint/<rule>:
//
//   - perf-needless-barrier: a taskwait with no collective next to it in
//     its phase. Waits exist to funnel task results into a rank-wide
//     operation; one with no adjacent collective is a pure barrier,
//     serializing every predecessor against every successor.
//   - perf-serial-funnel: a task that runs once per phase with many
//     instances of other tasks on both sides within the pass. All upstream
//     instances must finish before it runs and all downstream ones wait for
//     it, collapsing the graph to width 1 at that point.
//   - perf-wide-key: instances of one task writing one stage region within
//     a pass. Each such write waits for the one before, so one key stands
//     for what should be one region per instance — almost always a region
//     that needs the instance's own index.
//
// Loop-driver graphs serialize by construction; the cost model measures
// them but perflint does not lint them.
func PerfLint(g *Graph) []Finding {
	if !hasTaskNodes(g) {
		return nil
	}
	var out []Finding
	report := func(rule, severity, format string, args ...any) {
		out = append(out, Finding{Pos: g.pos(), Analyzer: "perflint", Rule: rule, Severity: severity,
			Message: fmt.Sprintf(format, args...)})
	}
	byID := make(map[string]*Node, len(g.Nodes))
	for _, n := range g.Nodes {
		byID[n.ID] = n
	}

	funnels := make(map[string]bool)
	for _, e := range g.Edges {
		if e.Kind == "seq" {
			funnels[e.From+"\x00"+byID[e.To].Kind] = true
			funnels[e.To+"\x00"+byID[e.From].Kind] = true
		}
	}
	for _, n := range g.Nodes {
		if n.Kind == "wait" && !funnels[n.ID+"\x00collective"] {
			report("perf-needless-barrier", "error",
				"wait %s in phase %s reaches no collective: a pure barrier that serializes its predecessors against its successors",
				n.Label, n.Phase)
		}
	}

	wideIn := make(map[string]bool)  // node <- many-instance task
	wideOut := make(map[string]bool) // node -> many-instance task
	for _, e := range g.Edges {
		if e.Carried || e.Kind == "seq" {
			continue
		}
		if from := byID[e.From]; from.Kind == "task" && from.Count > 1 {
			wideIn[e.To] = true
		}
		if to := byID[e.To]; to.Kind == "task" && to.Count > 1 {
			wideOut[e.From] = true
		}
	}
	for _, n := range g.Nodes {
		if n.Kind == "task" && n.Count == 1 && wideIn[n.ID] && wideOut[n.ID] {
			report("perf-serial-funnel", "warning",
				"single-instance task %s in phase %s funnels parallel stages on both sides: the graph narrows to width 1 here",
				n.Label, n.Phase)
		}
	}

	for _, w := range g.wide {
		report("perf-wide-key", "error",
			"instances of task %s write one %s region within a stage: each waits for the one before, serializing them; give every instance its own region",
			w.label, w.class)
	}
	return out
}
