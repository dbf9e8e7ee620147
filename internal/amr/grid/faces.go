package grid

import "fmt"

// A rect is a rectangle of cells inside flat storage: cell (a, b) is
// s[base+a*su+b*sw]. A block face is one (see plane); so is a message
// buffer, with su the row length and sw 1.
type rect struct {
	s            []float64
	base, su, sw int
}

// face returns the interior cells of the plane at coordinate c in direction
// dir of variable v, shifted by (du, dw) cells in-plane.
func (d *Data) face(dir Dir, v, c, du, dw int) rect {
	base, su, sw := d.plane(dir, v, c)
	return rect{d.cells, base + (1+du)*su + (1+dw)*sw, su, sw}
}

// shortRow is the longest row, in cells, that copyRow moves with a plain
// element loop. Copying 32 rows of a face, the loop beats the memmove
// call by 30 % at 6 cells and by 8 % at 8 and 10; from 12 cells on memmove
// wins by 15-25 %.
const shortRow = 10

// copyRow copies src to the front of dst.
func copyRow(dst, src []float64) {
	if len(src) > shortRow {
		copy(dst, src)
		return
	}
	dst = dst[:len(src)]
	for i, x := range src {
		dst[i] = x
	}
}

// copyRect copies nu x nw cells from src to dst: row by row where both
// have contiguous rows, cell by cell along the strides otherwise.
func copyRect(dst, src rect, nu, nw int) {
	ds, ss, dw, sw := dst.s, src.s, dst.sw, src.sw
	for a, p, q := 0, dst.base, src.base; a < nu; a, p, q = a+1, p+dst.su, q+src.su {
		if dw == 1 && sw == 1 {
			copyRow(ds[p:p+nw], ss[q:q+nw])
			continue
		}
		for b, p, q := 0, p, q; b < nw; b, p, q = b+1, p+dw, q+sw {
			ds[p] = ss[q]
		}
	}
}

// PackFace copies the boundary face of the variable group [v0, v1) into
// buf for a same-level exchange and returns the number of values written.
// buf must hold at least FaceLen(dir, v0, v1) values.
//
//amr:hot allocs=0
func (d *Data) PackFace(dir Dir, side Side, v0, v1 int, buf []float64) int {
	d.checkGroup(v0, v1)
	u, w := d.faceDims(dir)
	need := (v1 - v0) * u * w
	checkBuf(buf, need)
	c := d.boundaryPlane(dir, side)
	for v, n := v0, 0; v < v1; v, n = v+1, n+u*w {
		copyRect(rect{buf, n, w, 1}, d.face(dir, v, c, 0, 0), u, w)
	}
	return need
}

// UnpackFace copies a same-level face from buf into the ghost plane of the
// given side and returns the number of values consumed.
//
//amr:hot allocs=0
func (d *Data) UnpackFace(dir Dir, side Side, v0, v1 int, buf []float64) int {
	d.checkGroup(v0, v1)
	u, w := d.faceDims(dir)
	need := (v1 - v0) * u * w
	checkBuf(buf, need)
	c := d.ghostPlane(dir, side)
	for v, n := v0, 0; v < v1; v, n = v+1, n+u*w {
		copyRect(d.face(dir, v, c, 0, 0), rect{buf, n, w, 1}, u, w)
	}
	return need
}

// CopyFaceTo performs the intra-process same-level exchange: it copies this
// block's boundary face on srcSide directly into dst's opposite ghost
// plane, without an intermediate buffer. Both blocks must have identical
// shape.
//
//amr:hot allocs=0
func (d *Data) CopyFaceTo(dst *Data, dir Dir, srcSide Side, v0, v1 int) {
	d.checkShape(dst)
	d.checkGroup(v0, v1)
	u, w := d.faceDims(dir)
	cSrc := d.boundaryPlane(dir, srcSide)
	cDst := dst.ghostPlane(dir, srcSide.Opposite())
	for v := v0; v < v1; v++ {
		copyRect(dst.face(dir, v, cDst, 0, 0), d.face(dir, v, cSrc, 0, 0), u, w)
	}
}

// PackFaceRestrict packs this (fine) block's boundary face restricted for a
// coarser neighbour: each 2x2 group of fine face cells is averaged into one
// value. The result has QuarterFaceLen values.
//
//amr:hot allocs=0
func (d *Data) PackFaceRestrict(dir Dir, side Side, v0, v1 int, buf []float64) int {
	d.checkGroup(v0, v1)
	u, w := d.faceDims(dir)
	checkBuf(buf, (v1-v0)*(u/2)*(w/2))
	c := d.boundaryPlane(dir, side)
	n := 0
	for v := v0; v < v1; v++ {
		base, su, sw := d.plane(dir, v, c)
		for a := 1; a <= u; a += 2 {
			r0 := d.cells[base+a*su+sw:]
			r1 := r0[su:]
			for p, end := 0, w*sw; p < end; p += 2 * sw {
				s := r0[p] + r1[p] + r0[p+sw] + r1[p+sw]
				buf[n] = s * 0.25
				n++
			}
		}
	}
	return n
}

// UnpackFaceQuarter stores a restricted face received from a finer
// neighbour into the (qu, qw) quarter of this (coarse) block's ghost plane.
// qu and qw select the half along each in-plane dimension (0 or 1).
//
//amr:hot allocs=0
func (d *Data) UnpackFaceQuarter(dir Dir, side Side, qu, qw, v0, v1 int, buf []float64) int {
	d.checkGroup(v0, v1)
	checkQuadrant(qu, qw)
	u, w := d.faceDims(dir)
	u, w = u/2, w/2
	need := (v1 - v0) * u * w
	checkBuf(buf, need)
	c := d.ghostPlane(dir, side)
	for v, n := v0, 0; v < v1; v, n = v+1, n+u*w {
		copyRect(d.face(dir, v, c, qu*u, qw*w), rect{buf, n, w, 1}, u, w)
	}
	return need
}

// PackFaceQuarter packs the (qu, qw) quarter of this (coarse) block's
// boundary face for a finer neighbour covering that quarter.
//
//amr:hot allocs=0
func (d *Data) PackFaceQuarter(dir Dir, side Side, qu, qw, v0, v1 int, buf []float64) int {
	d.checkGroup(v0, v1)
	checkQuadrant(qu, qw)
	u, w := d.faceDims(dir)
	u, w = u/2, w/2
	need := (v1 - v0) * u * w
	checkBuf(buf, need)
	c := d.boundaryPlane(dir, side)
	for v, n := v0, 0; v < v1; v, n = v+1, n+u*w {
		copyRect(rect{buf, n, w, 1}, d.face(dir, v, c, qu*u, qw*w), u, w)
	}
	return need
}

// UnpackFaceProlong stores a coarse quarter-face received from a coarser
// neighbour into this (fine) block's ghost plane, replicating each coarse
// value onto the 2x2 fine ghost cells it covers (piecewise-constant
// prolongation).
//
//amr:hot allocs=0
func (d *Data) UnpackFaceProlong(dir Dir, side Side, v0, v1 int, buf []float64) int {
	d.checkGroup(v0, v1)
	u, w := d.faceDims(dir)
	checkBuf(buf, (v1-v0)*(u/2)*(w/2))
	c := d.ghostPlane(dir, side)
	n := 0
	for v := v0; v < v1; v++ {
		base, su, sw := d.plane(dir, v, c)
		for a := 1; a <= u; a += 2 {
			r0 := d.cells[base+a*su+sw:]
			r1 := r0[su:]
			for p, end := 0, w*sw; p < end; p += 2 * sw {
				x := buf[n]
				n++
				r0[p] = x
				r1[p] = x
				r0[p+sw] = x
				r1[p+sw] = x
			}
		}
	}
	return n
}

// ApplyDomainBoundary fills the ghost plane of a face that has no
// neighbour (a domain boundary) with a zero-gradient condition: each ghost
// cell copies the adjacent interior cell.
//
//amr:hot allocs=0
func (d *Data) ApplyDomainBoundary(dir Dir, side Side, v0, v1 int) {
	d.checkGroup(v0, v1)
	u, w := d.faceDims(dir)
	cSrc := d.boundaryPlane(dir, side)
	cDst := d.ghostPlane(dir, side)
	for v := v0; v < v1; v++ {
		copyRect(d.face(dir, v, cDst, 0, 0), d.face(dir, v, cSrc, 0, 0), u, w)
	}
}

func (d *Data) checkGroup(v0, v1 int) {
	if v0 < 0 || v1 > d.vars || v0 >= v1 {
		fail("invalid variable group [%d,%d) for %d vars", v0, v1, d.vars)
	}
}

func checkQuadrant(qu, qw int) {
	if qu < 0 || qu > 1 || qw < 0 || qw > 1 {
		fail("invalid face quadrant (%d,%d)", qu, qw)
	}
}

// checkBuf panics unless buf holds the need values a face kernel is about
// to move, so that a short buffer fails before any cell is written.
func checkBuf(buf []float64, need int) {
	if len(buf) < need {
		fail("face buffer holds %d values, transfer needs %d", len(buf), need)
	}
}

// checkShape panics unless o is a block of d's shape.
func (d *Data) checkShape(o *Data) {
	if o == nil || o.size != d.size || o.vars != d.vars {
		fail("kernel on two blocks of different shape")
	}
}

// fail panics with a grid: message. The checks above inline into kernels
// pinned //amr:hot allocs=0, so fail takes ints, not interfaces, and stays
// out of line: the values are boxed here, not in every kernel.
//
//go:noinline
func fail(format string, args ...int) {
	boxed := make([]any, len(args))
	for i, a := range args {
		boxed[i] = a
	}
	panic("grid: " + fmt.Sprintf(format, boxed...))
}
