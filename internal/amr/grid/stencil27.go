package grid

// 27-point stencil support.
//
// The reference miniAMR offers a 27-point stencil besides the 7-point one.
// It consumes edge and corner ghost cells, which miniAMR obtains by
// exchanging faces direction-by-direction *including* the ghost rows
// filled by earlier directions. This reproduction exchanges interior faces
// only, so edge and corner ghosts are synthesised locally instead:
// each is the average of the adjacent face-ghost cells, which already hold
// real neighbour data. The approximation is deterministic and depends only
// on the block's own ghosts, so results stay identical across variants and
// rank counts; absolute values differ slightly from a full corner
// exchange (documented in DESIGN.md — the paper's experiments all use the
// 7-point stencil, where no such ghosts are needed).

// FillGhostEdges populates the edge and corner ghost cells of the variable
// group [v0, v1) from the face ghosts, which must have been filled by the
// communication phase (or boundary conditions) first.
func (d *Data) FillGhostEdges(v0, v1 int) {
	d.checkGroup(v0, v1)
	n := [3]int{d.size.X, d.size.Y, d.size.Z}
	stride := [3]int{d.sy * d.sz, d.sz, 1}
	// ghost returns the offset of ghost plane side (0 low, 1 high) along
	// axis, and the step from it towards the interior.
	ghost := func(axis, side int) (off, inward int) {
		return side * (n[axis] + 1) * stride[axis], (1 - 2*side) * stride[axis]
	}
	for v := v0; v < v1; v++ {
		origin := d.idx(v, 0, 0, 0)
		// Edges run along axis a with the other two coordinates, b < c, at
		// ghost planes: each cell averages its two face-ghost neighbours.
		for a, bc := range [3][2]int{{1, 2}, {0, 2}, {0, 1}} {
			for q := 0; q < 4; q++ {
				offB, inB := ghost(bc[0], q&1)
				offC, inC := ghost(bc[1], q>>1)
				e := origin + offB + offC + stride[a]
				for p := 0; p < n[a]; p, e = p+1, e+stride[a] {
					d.cells[e] = 0.5 * (d.cells[e+inB] + d.cells[e+inC])
				}
			}
		}
		// Corners: all three coordinates at ghost planes, averaged from the
		// three adjacent edge ghosts.
		for q := 0; q < 8; q++ {
			offX, inX := ghost(0, q&1)
			offY, inY := ghost(1, q>>1&1)
			offZ, inZ := ghost(2, q>>2)
			e := origin + offX + offY + offZ
			d.cells[e] = (d.cells[e+inX] + d.cells[e+inY] + d.cells[e+inZ]) / 3
		}
	}
}

// Stencil27 applies the 27-point stencil to the variable group [v0, v1):
// each interior cell becomes the average of the full 3x3x3 neighbourhood.
// Face ghosts must be current and edge/corner ghosts filled (see
// FillGhostEdges). The update is Jacobi-style.
func (d *Data) Stencil27(v0, v1 int) {
	d.checkGroup(v0, v1)
	const inv27 = 1.0 / 27.0
	sx, sy, sz := d.size.X, d.size.Y, d.size.Z
	sj := d.sz
	si := d.sy * d.sz
	for v := v0; v < v1; v++ {
		for i := 1; i <= sx; i++ {
			for j := 1; j <= sy; j++ {
				base := d.idx(v, i, j, 0)
				for k := 1; k <= sz; k++ {
					c := base + k
					var s float64
					for _, di := range [3]int{-si, 0, si} {
						for _, dj := range [3]int{-sj, 0, sj} {
							p := c + di + dj
							s += d.cells[p-1] + d.cells[p] + d.cells[p+1]
						}
					}
					d.scratch[c] = s * inv27
				}
			}
		}
	}
	for v := v0; v < v1; v++ {
		d.commit(v)
	}
}

// Stencil27Flops returns the operation count of one Stencil27 call:
// 26 additions and one multiplication per cell.
func (d *Data) Stencil27Flops(v0, v1 int) int64 {
	return int64(v1-v0) * int64(d.size.Cells()) * 27
}
