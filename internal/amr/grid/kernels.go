package grid

// Stencil7 applies the 7-point stencil to the variable group [v0, v1):
// each interior cell becomes the average of itself and its six face
// neighbours (which may be ghost cells at block boundaries). The update is
// Jacobi-style: all reads see the pre-update state.
//
// Each x-plane of a variable is one run of cells from its first interior
// cell to its last, the two ghost cells between consecutive rows included:
// the sum is formed at those too (all seven reads stay inside the block)
// but only ever lands in scratch, and the copy back takes interior rows
// alone, so every ghost cell keeps the bytes it had.
func (d *Data) Stencil7(v0, v1 int) {
	d.checkGroup(v0, v1)
	const inv7 = 1.0 / 7.0
	sj, si := d.sz, d.sy*d.sz
	run := (d.size.Y-1)*sj + d.size.Z
	for v := v0; v < v1; v++ {
		for i := 1; i <= d.size.X; i++ {
			at := d.idx(v, i, 1, 1)
			out := d.scratch[at : at+run]
			c := d.cells[at:][:len(out)]
			xm, xp := d.cells[at-si:][:len(out)], d.cells[at+si:][:len(out)]
			ym, yp := d.cells[at-sj:][:len(out)], d.cells[at+sj:][:len(out)]
			zm, zp := d.cells[at-1:][:len(out)], d.cells[at+1:][:len(out)]
			for p := range out {
				out[p] = (c[p] + xm[p] + xp[p] + ym[p] + yp[p] + zm[p] + zp[p]) * inv7
			}
		}
		d.commit(v)
	}
}

// commit copies the interior rows of variable v from the stencil target
// back into cells. Ghosts are stale until the next communication phase, as
// in the reference implementation.
func (d *Data) commit(v int) {
	for i := 1; i <= d.size.X; i++ {
		at := d.idx(v, i, 1, 1)
		for j := 0; j < d.size.Y; j, at = j+1, at+d.sz {
			copyRow(d.cells[at:at+d.size.Z], d.scratch[at:at+d.size.Z])
		}
	}
}

// Stencil7Flops returns the floating-point operation count of one Stencil7
// call over the group [v0, v1): six additions and one multiplication per
// cell, matching how the reference mini-app accounts throughput.
func (d *Data) Stencil7Flops(v0, v1 int) int64 {
	return int64(v1-v0) * int64(d.size.Cells()) * 7
}

// Checksum accumulates the sum of all interior cells per variable of the
// group [v0, v1) into out[0:v1-v0]. Summation order is fixed (x, y, z
// ascending), so results are bit-reproducible for identical block content.
//
// A sum in a fixed order is one chain of dependent additions, bounded by
// the adder's latency, not its throughput. Variables are independent
// chains, so two are summed side by side, each still in its own order; a
// last odd variable pairs with itself.
func (d *Data) Checksum(v0, v1 int, out []float64) {
	d.checkGroup(v0, v1)
	for v := v0; v < v1; v += 2 {
		w := min(v+1, v1-1)
		off := (w - v) * d.sx * d.sy * d.sz
		var s, t float64
		for i := 1; i <= d.size.X; i++ {
			at := d.idx(v, i, 1, 1)
			for j := 0; j < d.size.Y; j, at = j+1, at+d.sz {
				a := d.cells[at : at+d.size.Z]
				b := d.cells[at+off:][:len(a)]
				for k, x := range a {
					s += x
					t += b[k]
				}
			}
		}
		out[v-v0], out[w-v0] = s, t
	}
}

// octantOrigin returns the padded coordinates, in the parent, of the cell
// before the first one octant o covers: bits (x=o&1, y=o>>1&1, z=o>>2&1).
func (d *Data) octantOrigin(o int) (i, j, k int) {
	return (o & 1) * d.size.X / 2, (o >> 1 & 1) * d.size.Y / 2, (o >> 2 & 1) * d.size.Z / 2
}

// SplitInto refines this block into eight children, one per octant.
// children[o] receives the octant with bits (x=o&1, y=o>>1&1, z=o>>2&1):
// each parent cell is replicated into the 2x2x2 fine cells it covers.
// All children must have the block's shape.
func (d *Data) SplitInto(children *[8]*Data) {
	nz, sj, si := d.size.Z, d.sz, d.sy*d.sz
	for o, c := range children {
		d.checkShape(c)
		pi, pj, pk := d.octantOrigin(o)
		for v := 0; v < d.vars; v++ {
			for i := 1; i <= d.size.X; i += 2 {
				from := d.idx(v, pi+(i+1)/2, pj+1, pk+1)
				to := c.idx(v, i, 1, 1)
				for j := 1; j <= d.size.Y; j, from, to = j+2, from+sj, to+2*sj {
					// One parent half-row doubles into a child row, which
					// is then the other three rows under the same parents.
					row := c.cells[to : to+nz]
					for q, x := range d.cells[from : from+nz/2] {
						row[2*q], row[2*q+1] = x, x
					}
					copyRow(c.cells[to+sj:to+sj+nz], row)
					copyRow(c.cells[to+si:to+si+nz], row)
					copyRow(c.cells[to+si+sj:to+si+sj+nz], row)
				}
			}
		}
	}
}

// ConsolidateFrom coarsens eight children back into this block: each
// parent cell becomes the average of the 2x2x2 fine cells covering it.
// Octant numbering matches SplitInto.
func (d *Data) ConsolidateFrom(children *[8]*Data) {
	nz, sj, si := d.size.Z, d.sz, d.sy*d.sz
	for o, c := range children {
		d.checkShape(c)
		pi, pj, pk := d.octantOrigin(o)
		for v := 0; v < d.vars; v++ {
			for i := 1; i <= d.size.X; i += 2 {
				to := d.idx(v, pi+(i+1)/2, pj+1, pk+1)
				from := c.idx(v, i, 1, 1)
				for j := 1; j <= d.size.Y; j, to, from = j+2, to+sj, from+2*sj {
					// The four child rows under one parent half-row, named
					// by their (i, j) offsets.
					r00, r10 := c.cells[from:from+nz], c.cells[from+si:][:nz]
					r01, r11 := c.cells[from+sj:][:nz], c.cells[from+si+sj:][:nz]
					out := d.cells[to : to+nz/2]
					for q := range out {
						k := 2 * q
						// Balanced pairwise summation keeps the average of
						// eight equal values exact, so a split followed by a
						// consolidation reproduces the parent bit-for-bit.
						s := ((r00[k] + r10[k]) + (r01[k] + r11[k])) +
							((r00[k+1] + r10[k+1]) + (r01[k+1] + r11[k+1]))
						out[q] = s * 0.125
					}
				}
			}
		}
	}
}

// InteriorLen returns the length of a full-block interior serialisation.
func (d *Data) InteriorLen() int { return d.vars * d.size.Cells() }

// PackInterior serialises all interior cells of all variables into buf
// (for load-balancing block moves) and returns the count written.
func (d *Data) PackInterior(buf []float64) int {
	n := 0
	for v := 0; v < d.vars; v++ {
		for i := 1; i <= d.size.X; i++ {
			for j := 1; j <= d.size.Y; j++ {
				base := d.idx(v, i, j, 1)
				copy(buf[n:n+d.size.Z], d.cells[base:base+d.size.Z])
				n += d.size.Z
			}
		}
	}
	return n
}

// UnpackInterior deserialises a PackInterior payload.
func (d *Data) UnpackInterior(buf []float64) int {
	n := 0
	for v := 0; v < d.vars; v++ {
		for i := 1; i <= d.size.X; i++ {
			for j := 1; j <= d.size.Y; j++ {
				base := d.idx(v, i, j, 1)
				copy(d.cells[base:base+d.size.Z], buf[n:n+d.size.Z])
				n += d.size.Z
			}
		}
	}
	return n
}
