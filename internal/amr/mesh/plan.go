package mesh

import (
	"fmt"

	"miniamr/internal/amr/grid"
)

// Plan is a consistent refinement decision: which current leaves split and
// which octets consolidate. Plans are computed deterministically from
// replicated state, so every rank derives the identical plan.
type Plan struct {
	// Target is the post-refinement level of every current leaf.
	Target map[Coord]int
	// Refines lists current leaves that split into eight children,
	// in deterministic order.
	Refines []Coord
	// Coarsens lists the parent coordinates created by consolidating eight
	// current sibling leaves, in deterministic order.
	Coarsens []Coord
}

// PlanRefinement computes a valid plan from per-leaf marks (+1 refine,
// 0 stay, -1 coarsen candidate; missing entries mean 0). The plan respects
// the level bounds [0, MaxLevel], changes each block by at most one level,
// enforces 2:1 balance across faces, and only coarsens complete sibling
// octets that unanimously agree.
func (m *Mesh) PlanRefinement(marks map[Coord]int8) (*Plan, error) {
	leaves := m.Leaves()
	t := make(map[Coord]int, len(leaves))
	for _, c := range leaves {
		target := c.Level + int(marks[c])
		if target < 0 {
			target = 0
		}
		if target > m.cfg.MaxLevel {
			target = m.cfg.MaxLevel
		}
		t[c] = target
	}

	// Fixpoint: both passes only ever raise targets, so the loop
	// terminates (each target is bounded by level+1).
	var nb [4]Neighbor
	for changed := true; changed; {
		changed = false
		// 2:1 balance across faces of the current mesh.
		for _, a := range leaves {
			for dir := grid.DirX; dir <= grid.DirZ; dir++ {
				for _, side := range []grid.Side{grid.Low, grid.High} {
					ns, err := m.Neighbors(a, dir, side, &nb)
					if err != nil {
						return nil, fmt.Errorf("mesh: planning on corrupted mesh: %w", err)
					}
					for _, n := range ns {
						b := n.Coord
						if t[a] > t[b]+1 {
							t[b] = t[a] - 1
							changed = true
						}
						if t[b] > t[a]+1 {
							t[a] = t[b] - 1
							changed = true
						}
					}
				}
			}
		}
		// Coarsening gate: a block may only coarsen when all eight
		// siblings are leaves and all target the parent level.
		for _, a := range leaves {
			if t[a] != a.Level-1 {
				continue
			}
			p := a.Parent()
			ok := true
			for o := 0; o < 8; o++ {
				sib := p.Child(o)
				ts, exists := t[sib]
				if !exists || ts != a.Level-1 {
					ok = false
					break
				}
			}
			if !ok {
				t[a] = a.Level
				changed = true
			}
		}
	}

	plan := &Plan{Target: t}
	coarsenParents := make(map[Coord]bool)
	for _, c := range leaves {
		switch {
		case t[c] == c.Level+1:
			plan.Refines = append(plan.Refines, c)
		case t[c] == c.Level-1:
			coarsenParents[c.Parent()] = true
		}
	}
	for p := range coarsenParents {
		plan.Coarsens = append(plan.Coarsens, p)
	}
	sortCoords(plan.Coarsens)
	return plan, nil
}

// Move describes a block that must change owner before or during plan
// application.
type Move struct {
	Block    Coord
	From, To int
}

// CoarsenMoves lists the sibling blocks that must be gathered onto the
// consolidation owner (the owner of octant 0) before each coarsening can
// execute, in deterministic order.
func (p *Plan) CoarsenMoves(m *Mesh) []Move {
	var moves []Move
	for _, parent := range p.Coarsens {
		to := m.Owner(parent.Child(0))
		for o := 1; o < 8; o++ {
			child := parent.Child(o)
			if from := m.Owner(child); from != to {
				moves = append(moves, Move{Block: child, From: from, To: to})
			}
		}
	}
	return moves
}

// Apply mutates the registry according to the plan: refined leaves are
// replaced by their eight children (inheriting the owner) and coarsened
// octets by their parent (owned by octant 0's owner). Every rank must call
// Apply with the identical plan.
func (m *Mesh) Apply(p *Plan) {
	for _, c := range p.Refines {
		owner := m.Owner(c)
		delete(m.blocks, c)
		for o := 0; o < 8; o++ {
			m.blocks[c.Child(o)] = owner
		}
	}
	for _, parent := range p.Coarsens {
		owner := m.Owner(parent.Child(0))
		for o := 0; o < 8; o++ {
			delete(m.blocks, parent.Child(o))
		}
		m.blocks[parent] = owner
	}
}
