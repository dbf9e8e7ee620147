package mesh

import (
	"fmt"

	"miniamr/internal/amr/grid"
)

// CheckInvariants verifies the structural health of the mesh:
//
//  1. Tree consistency — no leaf is an ancestor of another leaf.
//  2. Exact cover — the leaves tile the whole domain without gaps or
//     overlap (verified by volume accounting at the finest present level).
//  3. 2:1 balance — every face of every leaf borders the domain boundary
//     or leaves within one refinement level.
//
// It returns the first violation found, or nil. Intended for tests and
// property checks; it is O(leaves · levels).
func (m *Mesh) CheckInvariants() error {
	maxPresent := 0
	for c := range m.blocks {
		if c.Level > maxPresent {
			maxPresent = c.Level
		}
		if c.Level > m.cfg.MaxLevel {
			return fmt.Errorf("mesh: leaf %v beyond max level %d", c, m.cfg.MaxLevel)
		}
		for d := 0; d < 3; d++ {
			if c.component(d) < 0 || c.component(d) >= m.cfg.Extent(d, c.Level) {
				return fmt.Errorf("mesh: leaf %v outside domain", c)
			}
		}
	}

	// 1. No leaf has a leaf ancestor.
	for c := range m.blocks {
		for a := c; a.Level > 0; {
			a = a.Parent()
			if m.Has(a) {
				return fmt.Errorf("mesh: leaf %v has leaf ancestor %v", c, a)
			}
		}
	}

	// 2. Volume accounting in units of finest-present-level blocks. Guard
	// against overflow for pathological depths.
	if 3*maxPresent < 60 {
		var vol uint64
		for c := range m.blocks {
			vol += 1 << (3 * (maxPresent - c.Level))
		}
		want := uint64(m.cfg.Root[0]) * uint64(m.cfg.Root[1]) * uint64(m.cfg.Root[2]) << (3 * maxPresent)
		if vol != want {
			return fmt.Errorf("mesh: leaves cover %d finest units, want %d (gap or overlap)", vol, want)
		}
	}

	// 3. Face coverage within one level.
	var nb [4]Neighbor
	for c := range m.blocks {
		for dir := grid.DirX; dir <= grid.DirZ; dir++ {
			for _, side := range []grid.Side{grid.Low, grid.High} {
				if _, err := m.Neighbors(c, dir, side, &nb); err != nil {
					return fmt.Errorf("mesh: 2:1 balance violated: %w", err)
				}
			}
		}
	}
	return nil
}
