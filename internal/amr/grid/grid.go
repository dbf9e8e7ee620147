// Package grid implements the per-block cell storage and numerical kernels
// of the AMR application: ghost-face packing and unpacking (same-level and
// fine/coarse with restriction and prolongation), the 7-point stencil,
// per-block checksums, refinement splitting and coarsening consolidation.
//
// A block stores a fixed-size brick of interior cells surrounded by a
// one-cell ghost layer, with a configurable number of variables per cell.
// Following the data-structure change by Rico et al. that the paper adopts,
// all variables live in one contiguous array per block, variable-major, so
// a stencil over a variable group streams through contiguous memory.
package grid

import "fmt"

// Size is a block's interior cell extent per dimension. All extents must be
// positive and even: fine/coarse face transfers work on 2x2 cell groups.
type Size struct {
	X, Y, Z int
}

// Validate reports whether the size is usable.
func (s Size) Validate() error {
	for _, v := range []int{s.X, s.Y, s.Z} {
		if v <= 0 || v%2 != 0 {
			return fmt.Errorf("grid: block size %dx%dx%d invalid: extents must be positive and even", s.X, s.Y, s.Z)
		}
	}
	return nil
}

// Cells returns the number of interior cells.
func (s Size) Cells() int { return s.X * s.Y * s.Z }

// Dir identifies a face direction.
type Dir int

// Face directions, processed in this order by the communication phase.
const (
	DirX Dir = iota
	DirY
	DirZ
)

func (d Dir) String() string {
	switch d {
	case DirX:
		return "X"
	case DirY:
		return "Y"
	case DirZ:
		return "Z"
	}
	return fmt.Sprintf("Dir(%d)", int(d))
}

// Side identifies the low or high face in a direction.
type Side int

// Sides of a block in a direction.
const (
	Low  Side = iota // the face at the minimum coordinate
	High             // the face at the maximum coordinate
)

func (s Side) String() string {
	if s == Low {
		return "low"
	}
	return "high"
}

// Opposite returns the other side.
func (s Side) Opposite() Side { return 1 - s }

// Data is one block's cell storage: vars x (X+2) x (Y+2) x (Z+2) float64
// values, variable-major with z innermost. Interior indices run 1..N per
// dimension; 0 and N+1 are the ghost layers.
type Data struct {
	size    Size
	vars    int
	sx, sy  int // padded extents X+2, Y+2
	sz      int // padded extent Z+2
	cells   []float64
	scratch []float64 // stencil target; lazily allocated
}

// NewData allocates zeroed storage for a block.
func NewData(size Size, vars int) (*Data, error) {
	if err := size.Validate(); err != nil {
		return nil, err
	}
	if vars <= 0 {
		return nil, fmt.Errorf("grid: vars must be positive, got %d", vars)
	}
	d := &Data{
		size: size,
		vars: vars,
		sx:   size.X + 2,
		sy:   size.Y + 2,
		sz:   size.Z + 2,
	}
	d.cells = make([]float64, vars*d.sx*d.sy*d.sz)
	// The stencil target is allocated eagerly: variable groups of one
	// block may be stencilled concurrently (they write disjoint regions),
	// so lazy initialisation here would race.
	d.scratch = make([]float64, len(d.cells))
	return d, nil
}

// MustNewData is NewData but panics on invalid arguments.
func MustNewData(size Size, vars int) *Data {
	d, err := NewData(size, vars)
	if err != nil {
		panic(err)
	}
	return d
}

// StorageLen returns the length of each of the two storage slices
// (cells and stencil scratch) a block of this shape needs.
func StorageLen(size Size, vars int) int {
	return vars * (size.X + 2) * (size.Y + 2) * (size.Z + 2)
}

// NewDataFrom builds a block over caller-provided storage — typically
// pooled buffers — instead of allocating. Both slices must have length
// StorageLen(size, vars). The caller is responsible for the contents of
// cells (a pooled buffer arrives stale; clear it if the block must start
// zeroed) and for returning both slices to their pool once the block is
// dead; Storage retrieves them.
func NewDataFrom(size Size, vars int, cells, scratch []float64) (*Data, error) {
	if err := size.Validate(); err != nil {
		return nil, err
	}
	if vars <= 0 {
		return nil, fmt.Errorf("grid: vars must be positive, got %d", vars)
	}
	want := StorageLen(size, vars)
	if len(cells) != want || len(scratch) != want {
		return nil, fmt.Errorf("grid: storage length %d/%d does not match block shape (want %d)", len(cells), len(scratch), want)
	}
	return &Data{
		size: size, vars: vars,
		sx: size.X + 2, sy: size.Y + 2, sz: size.Z + 2,
		cells: cells, scratch: scratch,
	}, nil
}

// MustNewDataFrom is NewDataFrom but panics on invalid arguments.
func MustNewDataFrom(size Size, vars int, cells, scratch []float64) *Data {
	d, err := NewDataFrom(size, vars, cells, scratch)
	if err != nil {
		panic(err)
	}
	return d
}

// Storage returns the block's two backing slices so an owner that placed
// the block over pooled buffers can return them. The block must not be
// used after its storage is reclaimed.
func (d *Data) Storage() (cells, scratch []float64) { return d.cells, d.scratch }

// Size returns the interior extent.
func (d *Data) Size() Size { return d.size }

// Vars returns the number of variables per cell.
func (d *Data) Vars() int { return d.vars }

// idx maps (variable, padded coordinates) to the flat index.
func (d *Data) idx(v, i, j, k int) int {
	return ((v*d.sx+i)*d.sy+j)*d.sz + k
}

// At returns the value of variable v at padded coordinates (i, j, k);
// interior cells are 1..N, ghosts 0 and N+1.
func (d *Data) At(v, i, j, k int) float64 { return d.cells[d.idx(v, i, j, k)] }

// Set stores a value at padded coordinates.
func (d *Data) Set(v, i, j, k int, x float64) { d.cells[d.idx(v, i, j, k)] = x }

// Fill sets every interior cell of every variable from f evaluated at the
// cell's physical center, given the block's physical origin (low corner)
// and per-dimension cell widths. Ghosts are left untouched.
func (d *Data) Fill(origin, cellWidth [3]float64, f func(v int, x, y, z float64) float64) {
	for v := 0; v < d.vars; v++ {
		for i := 1; i <= d.size.X; i++ {
			x := origin[0] + (float64(i)-0.5)*cellWidth[0]
			for j := 1; j <= d.size.Y; j++ {
				y := origin[1] + (float64(j)-0.5)*cellWidth[1]
				row := d.idx(v, i, j, 1)
				for k := 1; k <= d.size.Z; k++ {
					d.cells[row+k-1] = f(v, x, y, origin[2]+(float64(k)-0.5)*cellWidth[2])
				}
			}
		}
	}
}

// Clone returns a deep copy (scratch excluded).
func (d *Data) Clone() *Data {
	out := MustNewData(d.size, d.vars)
	copy(out.cells, d.cells)
	return out
}

// EqualInterior reports whether interior cells of all variables match
// exactly between two blocks of identical shape.
func (d *Data) EqualInterior(o *Data) bool {
	if d.size != o.size || d.vars != o.vars {
		return false
	}
	for v := 0; v < d.vars; v++ {
		for i := 1; i <= d.size.X; i++ {
			for j := 1; j <= d.size.Y; j++ {
				a := d.idx(v, i, j, 1)
				b := o.idx(v, i, j, 1)
				for k := 0; k < d.size.Z; k++ {
					if d.cells[a+k] != o.cells[b+k] {
						return false
					}
				}
			}
		}
	}
	return true
}

// faceDims returns the two in-plane extents (u, w) of a face in the given
// direction: the remaining dimensions in canonical order.
func (d *Data) faceDims(dir Dir) (int, int) {
	switch dir {
	case DirX:
		return d.size.Y, d.size.Z
	case DirY:
		return d.size.X, d.size.Z
	default:
		return d.size.X, d.size.Y
	}
}

// FaceCells returns the number of cells on a face in the given direction.
func (d *Data) FaceCells(dir Dir) int {
	u, w := d.faceDims(dir)
	return u * w
}

// FaceLen returns the buffer length for a same-level face transfer of the
// variable group [v0, v1).
func (d *Data) FaceLen(dir Dir, v0, v1 int) int { return (v1 - v0) * d.FaceCells(dir) }

// QuarterFaceLen returns the buffer length for a fine/coarse face transfer
// (both restricted fine faces and coarse quarter faces have this size).
func (d *Data) QuarterFaceLen(dir Dir, v0, v1 int) int {
	u, w := d.faceDims(dir)
	return (v1 - v0) * (u / 2) * (w / 2)
}

// plane addresses the plane at coordinate c in direction dir of variable
// v: the cell at padded in-plane coordinates (u, w) is at base + u*su +
// w*sw. With k the fastest index, sw is 1 for X and Y faces (their rows
// are contiguous runs of cells) and the row pitch for Z faces.
func (d *Data) plane(dir Dir, v, c int) (base, su, sw int) {
	switch dir {
	case DirX:
		return d.idx(v, c, 0, 0), d.sz, 1
	case DirY:
		return d.idx(v, 0, c, 0), d.sy * d.sz, 1
	default:
		return d.idx(v, 0, 0, c), d.sy * d.sz, d.sz
	}
}

// boundaryPlane returns the interior plane coordinate of a face.
func (d *Data) boundaryPlane(dir Dir, side Side) int {
	if side == Low {
		return 1
	}
	switch dir {
	case DirX:
		return d.size.X
	case DirY:
		return d.size.Y
	default:
		return d.size.Z
	}
}

// ghostPlane returns the ghost plane coordinate of a face.
func (d *Data) ghostPlane(dir Dir, side Side) int {
	if side == Low {
		return 0
	}
	switch dir {
	case DirX:
		return d.size.X + 1
	case DirY:
		return d.size.Y + 1
	default:
		return d.size.Z + 1
	}
}
