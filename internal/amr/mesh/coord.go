// Package mesh maintains the adaptive block structure of the AMR
// application: which leaf blocks exist, at what refinement level, and which
// rank owns each of them.
//
// Block metadata (not cell data) is replicated on every rank, the way
// AMReX replicates its BoxArray. Every rank therefore computes neighbour
// relationships, refinement plans and load-balance partitions locally and
// deterministically from the same replicated state; only block marks are
// exchanged (a small allgather) and only cell data moves point-to-point.
//
// The mesh is an octree forest over a grid of root blocks spanning the
// unit cube. Refining a block splits it into eight children one level
// finer; coarsening consolidates a complete octet of sibling leaves back
// into their parent. Face-adjacent leaves never differ by more than one
// level (the 2:1 balance miniAMR enforces), which the refinement planner
// guarantees by construction.
package mesh

import (
	"cmp"
	"fmt"
	"slices"
)

// Coord identifies a block by refinement level and logical position. At
// level L the domain holds Root[d]<<L blocks along dimension d, so the
// coordinate doubles when descending a level. Coord is the block's global
// identity: it is comparable and stable across ranks.
type Coord struct {
	Level   int
	X, Y, Z int
}

func (c Coord) String() string {
	return fmt.Sprintf("L%d(%d,%d,%d)", c.Level, c.X, c.Y, c.Z)
}

// Parent returns the coordinate of the block covering c one level coarser.
// Calling Parent on a level-0 block is invalid.
func (c Coord) Parent() Coord {
	if c.Level == 0 {
		panic("mesh: Parent of a root block")
	}
	return Coord{Level: c.Level - 1, X: c.X >> 1, Y: c.Y >> 1, Z: c.Z >> 1}
}

// Child returns the o-th child (octant bits: x=o&1, y=o>>1&1, z=o>>2&1),
// matching the octant convention of grid.SplitInto.
func (c Coord) Child(o int) Coord {
	if o < 0 || o > 7 {
		panic(fmt.Sprintf("mesh: invalid octant %d", o))
	}
	return Coord{Level: c.Level + 1, X: c.X<<1 | o&1, Y: c.Y<<1 | (o>>1)&1, Z: c.Z<<1 | (o>>2)&1}
}

// Octant returns which child of its parent this block is.
func (c Coord) Octant() int {
	return c.X&1 | (c.Y&1)<<1 | (c.Z&1)<<2
}

// Compare orders coordinates totally (level, then x, y, z): negative when c
// sorts before o, zero when they are equal. It is the deterministic
// iteration order used everywhere a map would otherwise be ranged, and what
// a binary search over Leaves or Owned compares with.
func (c Coord) Compare(o Coord) int {
	return cmp.Or(cmp.Compare(c.Level, o.Level), cmp.Compare(c.X, o.X), cmp.Compare(c.Y, o.Y), cmp.Compare(c.Z, o.Z))
}

// Less reports whether c sorts before o.
func (c Coord) Less(o Coord) bool { return c.Compare(o) < 0 }

// component returns the coordinate along dimension d (0=x, 1=y, 2=z).
func (c Coord) component(d int) int {
	switch d {
	case 0:
		return c.X
	case 1:
		return c.Y
	default:
		return c.Z
	}
}

// withComponent returns c with dimension d replaced.
func (c Coord) withComponent(d, v int) Coord {
	switch d {
	case 0:
		c.X = v
	case 1:
		c.Y = v
	default:
		c.Z = v
	}
	return c
}

// sortCoords sorts in place by Compare.
func sortCoords(cs []Coord) { slices.SortFunc(cs, Coord.Compare) }
