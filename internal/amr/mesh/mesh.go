package mesh

import (
	"fmt"

	"miniamr/internal/amr/grid"
)

// Config fixes the immutable mesh parameters.
type Config struct {
	// Root is the number of level-0 blocks per dimension.
	Root [3]int
	// MaxLevel is the deepest refinement level a block may reach.
	MaxLevel int
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	for d := 0; d < 3; d++ {
		if c.Root[d] <= 0 {
			return fmt.Errorf("mesh: root block count %d in dimension %d must be positive", c.Root[d], d)
		}
	}
	if c.MaxLevel < 0 || c.MaxLevel > 20 {
		return fmt.Errorf("mesh: max level %d out of range [0,20]", c.MaxLevel)
	}
	return nil
}

// Extent returns the number of blocks along dimension d at the given level.
func (c Config) Extent(d, level int) int { return c.Root[d] << level }

// Bounds returns the physical region [lo, hi] a block covers in the unit
// cube.
func (c Config) Bounds(b Coord) (lo, hi [3]float64) {
	for d := 0; d < 3; d++ {
		n := float64(c.Extent(d, b.Level))
		lo[d] = float64(b.component(d)) / n
		hi[d] = float64(b.component(d)+1) / n
	}
	return lo, hi
}

// Center returns the physical center of a block.
func (c Config) Center(b Coord) [3]float64 {
	lo, hi := c.Bounds(b)
	return [3]float64{(lo[0] + hi[0]) / 2, (lo[1] + hi[1]) / 2, (lo[2] + hi[2]) / 2}
}

// CellWidth returns the physical cell widths of a block with the given
// interior size.
func (c Config) CellWidth(b Coord, size grid.Size) [3]float64 {
	lo, hi := c.Bounds(b)
	return [3]float64{
		(hi[0] - lo[0]) / float64(size.X),
		(hi[1] - lo[1]) / float64(size.Y),
		(hi[2] - lo[2]) / float64(size.Z),
	}
}

// Mesh is the replicated block registry: the set of leaf blocks and their
// owning ranks. Mutations (refinement plans, owner changes) must be applied
// identically on every rank; the structure itself performs no
// communication. Mesh is not safe for concurrent mutation.
type Mesh struct {
	cfg    Config
	blocks map[Coord]int // leaf -> owning rank
}

// NewUniform builds the initial mesh: every root block present at level 0,
// with owners assigned by the given partition function.
func NewUniform(cfg Config, owner func(Coord) int) (*Mesh, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Mesh{cfg: cfg, blocks: make(map[Coord]int)}
	for x := 0; x < cfg.Root[0]; x++ {
		for y := 0; y < cfg.Root[1]; y++ {
			for z := 0; z < cfg.Root[2]; z++ {
				c := Coord{Level: 0, X: x, Y: y, Z: z}
				m.blocks[c] = owner(c)
			}
		}
	}
	return m, nil
}

// NewFromLeaves rebuilds a mesh from an explicit leaf-ownership map (a
// restored checkpoint). The leaf set must satisfy every mesh invariant.
func NewFromLeaves(cfg Config, owners map[Coord]int) (*Mesh, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(owners) == 0 {
		return nil, fmt.Errorf("mesh: empty leaf set")
	}
	m := &Mesh{cfg: cfg, blocks: make(map[Coord]int, len(owners))}
	for c, r := range owners {
		m.blocks[c] = r
	}
	if err := m.CheckInvariants(); err != nil {
		return nil, fmt.Errorf("mesh: restored leaf set invalid: %w", err)
	}
	return m, nil
}

// Config returns the mesh configuration.
func (m *Mesh) Config() Config { return m.cfg }

// Len returns the number of leaf blocks.
func (m *Mesh) Len() int { return len(m.blocks) }

// Has reports whether c is a current leaf.
func (m *Mesh) Has(c Coord) bool {
	_, ok := m.blocks[c]
	return ok
}

// Owner returns the rank owning leaf c; it panics if c is not a leaf.
func (m *Mesh) Owner(c Coord) int {
	r, ok := m.blocks[c]
	if !ok {
		panic(fmt.Sprintf("mesh: Owner of non-leaf %v", c))
	}
	return r
}

// SetOwner reassigns a leaf to a rank (used when applying load-balance
// plans, identically on every rank).
func (m *Mesh) SetOwner(c Coord, rank int) {
	if !m.Has(c) {
		panic(fmt.Sprintf("mesh: SetOwner of non-leaf %v", c))
	}
	m.blocks[c] = rank
}

// Leaves returns all leaf coordinates in deterministic order.
func (m *Mesh) Leaves() []Coord {
	out := make([]Coord, 0, len(m.blocks))
	for c := range m.blocks {
		out = append(out, c)
	}
	sortCoords(out)
	return out
}

// Owned returns the leaves owned by rank, in deterministic order.
func (m *Mesh) Owned(rank int) []Coord {
	var out []Coord
	for c, r := range m.blocks {
		if r == rank {
			out = append(out, c)
		}
	}
	sortCoords(out)
	return out
}

// OwnedCount returns the number of leaves owned by rank without building a
// slice.
func (m *Mesh) OwnedCount(rank int) int {
	n := 0
	for _, r := range m.blocks {
		if r == rank {
			n++
		}
	}
	return n
}

// Rel describes the refinement-level relation of a neighbour.
type Rel int

// Neighbour relations across a face.
const (
	Same    Rel = iota // neighbour at the same level
	Finer              // neighbour one level finer (one of four quarter-faces)
	Coarser            // neighbour one level coarser (we cover a quarter of it)
)

func (r Rel) String() string {
	switch r {
	case Same:
		return "same"
	case Finer:
		return "finer"
	case Coarser:
		return "coarser"
	}
	return "unknown"
}

// Neighbor describes one block adjacent to a face. For Finer and Coarser
// relations, Qu and Qw locate the shared quarter-face within the coarse
// face's in-plane dimensions (the grid package's (u, w) order for the
// direction).
type Neighbor struct {
	Coord  Coord
	Rel    Rel
	Qu, Qw int
}

// inPlane returns the two in-plane dimension indices for a direction,
// matching grid.faceDims order.
func inPlane(dir grid.Dir) (int, int) {
	switch dir {
	case grid.DirX:
		return 1, 2
	case grid.DirY:
		return 0, 2
	default:
		return 0, 1
	}
}

// Neighbors returns the leaves adjacent to the given face of c, or nil for
// a domain boundary. With 2:1 balance the result is one Same neighbour, one
// Coarser neighbour, or four Finer neighbours; it is a prefix of buf, the
// caller's storage, so walking a mesh's faces allocates nothing. An error
// reports a corrupted mesh (no cover across the face).
func (m *Mesh) Neighbors(c Coord, dir grid.Dir, side grid.Side, buf *[4]Neighbor) ([]Neighbor, error) {
	d := int(dir)
	delta := 1
	if side == grid.Low {
		delta = -1
	}
	nc := c.withComponent(d, c.component(d)+delta)
	if nc.component(d) < 0 || nc.component(d) >= m.cfg.Extent(d, c.Level) {
		return nil, nil // domain boundary
	}
	if m.Has(nc) {
		buf[0] = Neighbor{Coord: nc, Rel: Same}
		return buf[:1], nil
	}
	u, w := inPlane(dir)
	if c.Level > 0 {
		p := nc.Parent()
		if m.Has(p) {
			// We cover the quarter of the coarse face given by our position
			// within our parent along the in-plane dimensions.
			buf[0] = Neighbor{
				Coord: p,
				Rel:   Coarser,
				Qu:    c.component(u) & 1,
				Qw:    c.component(w) & 1,
			}
			return buf[:1], nil
		}
	}
	if c.Level < m.cfg.MaxLevel {
		// The four children of nc whose face touches ours: their component
		// along dir is fixed (nearest to us), in-plane components vary.
		fixedBit := 0
		if side == grid.Low {
			fixedBit = 1
		}
		for bu := 0; bu < 2; bu++ {
			for bw := 0; bw < 2; bw++ {
				f := Coord{Level: nc.Level + 1}
				f = f.withComponent(d, nc.component(d)<<1|fixedBit)
				f = f.withComponent(u, nc.component(u)<<1|bu)
				f = f.withComponent(w, nc.component(w)<<1|bw)
				if !m.Has(f) {
					return nil, fmt.Errorf("mesh: face %v/%v of %v not covered: expected finer leaf %v", dir, side, c, f)
				}
				buf[bu<<1|bw] = Neighbor{Coord: f, Rel: Finer, Qu: bu, Qw: bw}
			}
		}
		return buf[:], nil
	}
	return nil, fmt.Errorf("mesh: face %v/%v of %v not covered by any leaf", dir, side, c)
}

// Clone returns a deep copy of the mesh (for tests and speculative plans).
func (m *Mesh) Clone() *Mesh {
	out := &Mesh{cfg: m.cfg, blocks: make(map[Coord]int, len(m.blocks))}
	for c, r := range m.blocks {
		out.blocks[c] = r
	}
	return out
}

// TotalCells returns the total interior cell count across all leaves for a
// given block size.
func (m *Mesh) TotalCells(size grid.Size) int64 {
	return int64(len(m.blocks)) * int64(size.Cells())
}
