package grid

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// Reference kernels: the per-cell implementations the strided-row kernels
// replaced, kept verbatim (one idx computation per cell, through
// refPlaneIdx) as the oracle the fast kernels are compared against cell for
// cell, ghost planes and untouched variables included.

func refPlaneIdx(d *Data, dir Dir, v, c, u, w int) int {
	switch dir {
	case DirX:
		return d.idx(v, c, u, w)
	case DirY:
		return d.idx(v, u, c, w)
	default:
		return d.idx(v, u, w, c)
	}
}

func refPackFace(d *Data, dir Dir, side Side, v0, v1 int, buf []float64) int {
	u, w := d.faceDims(dir)
	c := d.boundaryPlane(dir, side)
	n := 0
	for v := v0; v < v1; v++ {
		for iu := 1; iu <= u; iu++ {
			for iw := 1; iw <= w; iw++ {
				buf[n] = d.cells[refPlaneIdx(d, dir, v, c, iu, iw)]
				n++
			}
		}
	}
	return n
}

func refUnpackFace(d *Data, dir Dir, side Side, v0, v1 int, buf []float64) int {
	u, w := d.faceDims(dir)
	c := d.ghostPlane(dir, side)
	n := 0
	for v := v0; v < v1; v++ {
		for iu := 1; iu <= u; iu++ {
			for iw := 1; iw <= w; iw++ {
				d.cells[refPlaneIdx(d, dir, v, c, iu, iw)] = buf[n]
				n++
			}
		}
	}
	return n
}

func refCopyFaceTo(d, dst *Data, dir Dir, srcSide Side, v0, v1 int) {
	u, w := d.faceDims(dir)
	cSrc := d.boundaryPlane(dir, srcSide)
	cDst := dst.ghostPlane(dir, srcSide.Opposite())
	for v := v0; v < v1; v++ {
		for iu := 1; iu <= u; iu++ {
			for iw := 1; iw <= w; iw++ {
				dst.cells[refPlaneIdx(dst, dir, v, cDst, iu, iw)] = d.cells[refPlaneIdx(d, dir, v, cSrc, iu, iw)]
			}
		}
	}
}

func refPackFaceRestrict(d *Data, dir Dir, side Side, v0, v1 int, buf []float64) int {
	u, w := d.faceDims(dir)
	c := d.boundaryPlane(dir, side)
	n := 0
	for v := v0; v < v1; v++ {
		for iu := 1; iu <= u; iu += 2 {
			for iw := 1; iw <= w; iw += 2 {
				s := d.cells[refPlaneIdx(d, dir, v, c, iu, iw)] +
					d.cells[refPlaneIdx(d, dir, v, c, iu+1, iw)] +
					d.cells[refPlaneIdx(d, dir, v, c, iu, iw+1)] +
					d.cells[refPlaneIdx(d, dir, v, c, iu+1, iw+1)]
				buf[n] = s * 0.25
				n++
			}
		}
	}
	return n
}

func refUnpackFaceQuarter(d *Data, dir Dir, side Side, qu, qw, v0, v1 int, buf []float64) int {
	u, w := d.faceDims(dir)
	c := d.ghostPlane(dir, side)
	n := 0
	for v := v0; v < v1; v++ {
		for iu := 1; iu <= u/2; iu++ {
			for iw := 1; iw <= w/2; iw++ {
				d.cells[refPlaneIdx(d, dir, v, c, qu*u/2+iu, qw*w/2+iw)] = buf[n]
				n++
			}
		}
	}
	return n
}

func refPackFaceQuarter(d *Data, dir Dir, side Side, qu, qw, v0, v1 int, buf []float64) int {
	u, w := d.faceDims(dir)
	c := d.boundaryPlane(dir, side)
	n := 0
	for v := v0; v < v1; v++ {
		for iu := 1; iu <= u/2; iu++ {
			for iw := 1; iw <= w/2; iw++ {
				buf[n] = d.cells[refPlaneIdx(d, dir, v, c, qu*u/2+iu, qw*w/2+iw)]
				n++
			}
		}
	}
	return n
}

func refUnpackFaceProlong(d *Data, dir Dir, side Side, v0, v1 int, buf []float64) int {
	u, w := d.faceDims(dir)
	c := d.ghostPlane(dir, side)
	n := 0
	for v := v0; v < v1; v++ {
		for iu := 1; iu <= u; iu += 2 {
			for iw := 1; iw <= w; iw += 2 {
				x := buf[n]
				n++
				d.cells[refPlaneIdx(d, dir, v, c, iu, iw)] = x
				d.cells[refPlaneIdx(d, dir, v, c, iu+1, iw)] = x
				d.cells[refPlaneIdx(d, dir, v, c, iu, iw+1)] = x
				d.cells[refPlaneIdx(d, dir, v, c, iu+1, iw+1)] = x
			}
		}
	}
	return n
}

func refApplyDomainBoundary(d *Data, dir Dir, side Side, v0, v1 int) {
	u, w := d.faceDims(dir)
	cSrc := d.boundaryPlane(dir, side)
	cDst := d.ghostPlane(dir, side)
	for v := v0; v < v1; v++ {
		for iu := 1; iu <= u; iu++ {
			for iw := 1; iw <= w; iw++ {
				d.cells[refPlaneIdx(d, dir, v, cDst, iu, iw)] = d.cells[refPlaneIdx(d, dir, v, cSrc, iu, iw)]
			}
		}
	}
}

// refStencil7 computes into a private target, so unlike Stencil7 it leaves
// d.scratch alone; scratch is not part of a block's observable state.
func refStencil7(d *Data, v0, v1 int) {
	const inv7 = 1.0 / 7.0
	out := make([]float64, len(d.cells))
	for v := v0; v < v1; v++ {
		for i := 1; i <= d.size.X; i++ {
			for j := 1; j <= d.size.Y; j++ {
				for k := 1; k <= d.size.Z; k++ {
					out[d.idx(v, i, j, k)] = (d.At(v, i, j, k) +
						d.At(v, i-1, j, k) + d.At(v, i+1, j, k) +
						d.At(v, i, j-1, k) + d.At(v, i, j+1, k) +
						d.At(v, i, j, k-1) + d.At(v, i, j, k+1)) * inv7
				}
			}
		}
	}
	for v := v0; v < v1; v++ {
		for i := 1; i <= d.size.X; i++ {
			for j := 1; j <= d.size.Y; j++ {
				for k := 1; k <= d.size.Z; k++ {
					d.Set(v, i, j, k, out[d.idx(v, i, j, k)])
				}
			}
		}
	}
}

func refChecksum(d *Data, v0, v1 int, out []float64) {
	for v := v0; v < v1; v++ {
		var s float64
		for i := 1; i <= d.size.X; i++ {
			for j := 1; j <= d.size.Y; j++ {
				for k := 1; k <= d.size.Z; k++ {
					s += d.At(v, i, j, k)
				}
			}
		}
		out[v-v0] = s
	}
}

func refSplitInto(d *Data, children *[8]*Data) {
	for o := 0; o < 8; o++ {
		c := children[o]
		ox, oy, oz := o&1, (o>>1)&1, (o>>2)&1
		baseI := ox * d.size.X / 2
		baseJ := oy * d.size.Y / 2
		baseK := oz * d.size.Z / 2
		for v := 0; v < d.vars; v++ {
			for i := 1; i <= d.size.X; i++ {
				pi := baseI + (i+1)/2
				for j := 1; j <= d.size.Y; j++ {
					pj := baseJ + (j+1)/2
					for k := 1; k <= d.size.Z; k++ {
						pk := baseK + (k+1)/2
						c.cells[c.idx(v, i, j, k)] = d.cells[d.idx(v, pi, pj, pk)]
					}
				}
			}
		}
	}
}

func refConsolidateFrom(d *Data, children *[8]*Data) {
	for o := 0; o < 8; o++ {
		c := children[o]
		ox, oy, oz := o&1, (o>>1)&1, (o>>2)&1
		baseI := ox * d.size.X / 2
		baseJ := oy * d.size.Y / 2
		baseK := oz * d.size.Z / 2
		for v := 0; v < d.vars; v++ {
			for ci := 1; ci <= d.size.X; ci += 2 {
				pi := baseI + (ci+1)/2
				for cj := 1; cj <= d.size.Y; cj += 2 {
					pj := baseJ + (cj+1)/2
					for ck := 1; ck <= d.size.Z; ck += 2 {
						pk := baseK + (ck+1)/2
						s := ((c.cells[c.idx(v, ci, cj, ck)] + c.cells[c.idx(v, ci+1, cj, ck)]) +
							(c.cells[c.idx(v, ci, cj+1, ck)] + c.cells[c.idx(v, ci+1, cj+1, ck)])) +
							((c.cells[c.idx(v, ci, cj, ck+1)] + c.cells[c.idx(v, ci+1, cj, ck+1)]) +
								(c.cells[c.idx(v, ci, cj+1, ck+1)] + c.cells[c.idx(v, ci+1, cj+1, ck+1)]))
						d.cells[d.idx(v, pi, pj, pk)] = s * 0.125
					}
				}
			}
		}
	}
}

func refFillGhostEdges(d *Data, v0, v1 int) {
	nx, ny, nz := d.size.X, d.size.Y, d.size.Z
	xs := [2]int{0, nx + 1}
	ys := [2]int{0, ny + 1}
	zs := [2]int{0, nz + 1}
	// inward returns the padded coordinate one step towards the interior.
	inward := func(c, max int) int {
		if c == 0 {
			return 1
		}
		return max
	}
	for v := v0; v < v1; v++ {
		// Edges along z: x and y both at ghost planes.
		for _, gi := range xs {
			ii := inward(gi, nx)
			for _, gj := range ys {
				jj := inward(gj, ny)
				for k := 1; k <= nz; k++ {
					d.cells[d.idx(v, gi, gj, k)] =
						0.5 * (d.cells[d.idx(v, ii, gj, k)] + d.cells[d.idx(v, gi, jj, k)])
				}
			}
		}
		// Edges along y: x and z at ghost planes.
		for _, gi := range xs {
			ii := inward(gi, nx)
			for _, gk := range zs {
				kk := inward(gk, nz)
				for j := 1; j <= ny; j++ {
					d.cells[d.idx(v, gi, j, gk)] =
						0.5 * (d.cells[d.idx(v, ii, j, gk)] + d.cells[d.idx(v, gi, j, kk)])
				}
			}
		}
		// Edges along x: y and z at ghost planes.
		for _, gj := range ys {
			jj := inward(gj, ny)
			for _, gk := range zs {
				kk := inward(gk, nz)
				for i := 1; i <= nx; i++ {
					d.cells[d.idx(v, i, gj, gk)] =
						0.5 * (d.cells[d.idx(v, i, jj, gk)] + d.cells[d.idx(v, i, gj, kk)])
				}
			}
		}
		// Corners: all three coordinates at ghost planes, averaged from the
		// three adjacent face ghosts.
		for _, gi := range xs {
			ii := inward(gi, nx)
			for _, gj := range ys {
				jj := inward(gj, ny)
				for _, gk := range zs {
					kk := inward(gk, nz)
					d.cells[d.idx(v, gi, gj, gk)] = (d.cells[d.idx(v, ii, gj, gk)] +
						d.cells[d.idx(v, gi, jj, gk)] +
						d.cells[d.idx(v, gi, gj, kk)]) / 3
				}
			}
		}
	}
}

// refShapes are deliberately non-cubic: with X, Y and Z all different a
// kernel that swaps two strides or extents cannot agree with the reference.
// Rows of 2, 6, 8 and 12 cells put both sides of shortRow under test.
var refShapes = []Size{{2, 2, 2}, {4, 6, 8}, {8, 4, 6}, {6, 12, 2}, {2, 6, 12}}

const refVars = 4

// refGroups are the variable groups each kernel is checked on: all of
// them, and proper sub-groups at the front, middle and back.
var refGroups = [][2]int{{0, refVars}, {0, 1}, {1, 3}, {3, 4}}

// sameBits fails unless got and want agree bit for bit in every element,
// the ones a kernel has no business writing included.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d is %v, reference has %v", what, i, got[i], want[i])
		}
	}
}

// forEachFace runs fn for every shape x direction x side x variable group
// with a fresh random block; fn names the case through what.
func forEachFace(t *testing.T, fn func(what string, rng *rand.Rand, size Size, dir Dir, side Side, v0, v1 int)) {
	rng := rand.New(rand.NewSource(17))
	for _, size := range refShapes {
		for _, dir := range []Dir{DirX, DirY, DirZ} {
			for _, side := range []Side{Low, High} {
				for _, g := range refGroups {
					what := fmt.Sprintf("%dx%dx%d %v/%v [%d,%d)", size.X, size.Y, size.Z, dir, side, g[0], g[1])
					fn(what, rng, size, dir, side, g[0], g[1])
				}
			}
		}
	}
}

// randBuf returns n+2 random values; kernels get the front n, and the two
// trailing values must survive a pack untouched.
func randBuf(rng *rand.Rand, n int) []float64 {
	buf := make([]float64, n+2)
	for i := range buf {
		buf[i] = rng.Float64() + 2
	}
	return buf
}

func TestPackKernelsMatchReference(t *testing.T) {
	forEachFace(t, func(what string, rng *rand.Rand, size Size, dir Dir, side Side, v0, v1 int) {
		d := randBlock(rng, size, refVars)
		before := d.Clone()
		check := func(name string, n int, pack, ref func(buf []float64) int) {
			got, want := randBuf(rng, n), make([]float64, n+2)
			copy(want, got)
			if m := pack(got); m != n {
				t.Fatalf("%s %s: returned %d, want %d", name, what, m, n)
			}
			ref(want)
			sameBits(t, name+" "+what+" buffer", got, want)
			sameBits(t, name+" "+what+" block (must be read-only)", d.cells, before.cells)
		}
		check("PackFace", d.FaceLen(dir, v0, v1),
			func(buf []float64) int { return d.PackFace(dir, side, v0, v1, buf) },
			func(buf []float64) int { return refPackFace(d, dir, side, v0, v1, buf) })
		check("PackFaceRestrict", d.QuarterFaceLen(dir, v0, v1),
			func(buf []float64) int { return d.PackFaceRestrict(dir, side, v0, v1, buf) },
			func(buf []float64) int { return refPackFaceRestrict(d, dir, side, v0, v1, buf) })
		for q := 0; q < 4; q++ {
			qu, qw := q&1, q>>1
			check(fmt.Sprintf("PackFaceQuarter(%d,%d)", qu, qw), d.QuarterFaceLen(dir, v0, v1),
				func(buf []float64) int { return d.PackFaceQuarter(dir, side, qu, qw, v0, v1, buf) },
				func(buf []float64) int { return refPackFaceQuarter(d, dir, side, qu, qw, v0, v1, buf) })
		}
	})
}

func TestUnpackKernelsMatchReference(t *testing.T) {
	forEachFace(t, func(what string, rng *rand.Rand, size Size, dir Dir, side Side, v0, v1 int) {
		start := randBlock(rng, size, refVars)
		check := func(name string, n int, unpack, ref func(d *Data, buf []float64) int) {
			buf := randBuf(rng, n)
			got, want := start.Clone(), start.Clone()
			if m := unpack(got, buf); m != n {
				t.Fatalf("%s %s: returned %d, want %d", name, what, m, n)
			}
			ref(want, buf)
			sameBits(t, name+" "+what, got.cells, want.cells)
		}
		check("UnpackFace", start.FaceLen(dir, v0, v1),
			func(d *Data, buf []float64) int { return d.UnpackFace(dir, side, v0, v1, buf) },
			func(d *Data, buf []float64) int { return refUnpackFace(d, dir, side, v0, v1, buf) })
		check("UnpackFaceProlong", start.QuarterFaceLen(dir, v0, v1),
			func(d *Data, buf []float64) int { return d.UnpackFaceProlong(dir, side, v0, v1, buf) },
			func(d *Data, buf []float64) int { return refUnpackFaceProlong(d, dir, side, v0, v1, buf) })
		for q := 0; q < 4; q++ {
			qu, qw := q&1, q>>1
			check(fmt.Sprintf("UnpackFaceQuarter(%d,%d)", qu, qw), start.QuarterFaceLen(dir, v0, v1),
				func(d *Data, buf []float64) int { return d.UnpackFaceQuarter(dir, side, qu, qw, v0, v1, buf) },
				func(d *Data, buf []float64) int { return refUnpackFaceQuarter(d, dir, side, qu, qw, v0, v1, buf) })
		}
	})
}

func TestBlockToBlockKernelsMatchReference(t *testing.T) {
	forEachFace(t, func(what string, rng *rand.Rand, size Size, dir Dir, side Side, v0, v1 int) {
		src := randBlock(rng, size, refVars)
		srcBefore := src.Clone()
		got := randBlock(rng, size, refVars)
		want := got.Clone()
		src.CopyFaceTo(got, dir, side, v0, v1)
		refCopyFaceTo(src, want, dir, side, v0, v1)
		sameBits(t, "CopyFaceTo "+what+" destination", got.cells, want.cells)
		sameBits(t, "CopyFaceTo "+what+" source (must be read-only)", src.cells, srcBefore.cells)

		want = src.Clone()
		src.ApplyDomainBoundary(dir, side, v0, v1)
		refApplyDomainBoundary(want, dir, side, v0, v1)
		sameBits(t, "ApplyDomainBoundary "+what, src.cells, want.cells)
	})
}

func TestStencilAndChecksumMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, size := range refShapes {
		for _, g := range refGroups {
			what := fmt.Sprintf("%dx%dx%d [%d,%d)", size.X, size.Y, size.Z, g[0], g[1])
			got := randBlock(rng, size, refVars)
			want := got.Clone()
			// Two sweeps: the second reads what the first wrote, next to
			// ghosts the first must have left byte for byte as they were.
			for sweep := 0; sweep < 2; sweep++ {
				got.Stencil7(g[0], g[1])
				refStencil7(want, g[0], g[1])
				sameBits(t, fmt.Sprintf("Stencil7 %s sweep %d", what, sweep), got.cells, want.cells)
			}
			gotSum, wantSum := make([]float64, g[1]-g[0]+1), make([]float64, g[1]-g[0]+1)
			gotSum[g[1]-g[0]], wantSum[g[1]-g[0]] = -1, -1 // one past the group: must survive
			got.Checksum(g[0], g[1], gotSum)
			refChecksum(want, g[0], g[1], wantSum)
			sameBits(t, "Checksum "+what, gotSum, wantSum)
		}
	}
}

func TestFillGhostEdgesMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for _, size := range refShapes {
		for _, g := range refGroups {
			got := randBlock(rng, size, refVars)
			want := got.Clone()
			got.FillGhostEdges(g[0], g[1])
			refFillGhostEdges(want, g[0], g[1])
			sameBits(t, fmt.Sprintf("FillGhostEdges %dx%dx%d [%d,%d)", size.X, size.Y, size.Z, g[0], g[1]), got.cells, want.cells)
		}
	}
}

func TestSplitConsolidateMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, size := range refShapes {
		what := fmt.Sprintf("%dx%dx%d", size.X, size.Y, size.Z)
		parent := randBlock(rng, size, refVars)
		parentBefore := parent.Clone()
		var got, want [8]*Data
		for o := range got {
			got[o] = randBlock(rng, size, refVars)
			want[o] = got[o].Clone()
		}
		parent.SplitInto(&got)
		refSplitInto(parent, &want)
		sameBits(t, "SplitInto "+what+" parent (must be read-only)", parent.cells, parentBefore.cells)
		for o := range got {
			sameBits(t, fmt.Sprintf("SplitInto %s child %d", what, o), got[o].cells, want[o].cells)
		}

		// Consolidate independent random children (not a fresh split, whose
		// eight equal values would hide a wrong summation order).
		var children [8]*Data
		for o := range children {
			children[o] = randBlock(rng, size, refVars)
		}
		gotP := randBlock(rng, size, refVars)
		wantP := gotP.Clone()
		gotP.ConsolidateFrom(&children)
		refConsolidateFrom(wantP, &children)
		sameBits(t, "ConsolidateFrom "+what, gotP.cells, wantP.cells)
	}
}

// TestShortFaceBufferPanicsBeforeWriting: every kernel that takes buf must
// reject one that is a value short with a grid: message, having written
// neither a cell nor a buffer element.
func TestShortFaceBufferPanicsBeforeWriting(t *testing.T) {
	forEachFace(t, func(what string, rng *rand.Rand, size Size, dir Dir, side Side, v0, v1 int) {
		d := randBlock(rng, size, refVars)
		before := d.Clone()
		full, quarter := d.FaceLen(dir, v0, v1), d.QuarterFaceLen(dir, v0, v1)
		kernels := []struct {
			name string
			need int
			call func(buf []float64)
		}{
			{"PackFace", full, func(buf []float64) { d.PackFace(dir, side, v0, v1, buf) }},
			{"UnpackFace", full, func(buf []float64) { d.UnpackFace(dir, side, v0, v1, buf) }},
			{"PackFaceRestrict", quarter, func(buf []float64) { d.PackFaceRestrict(dir, side, v0, v1, buf) }},
			{"PackFaceQuarter", quarter, func(buf []float64) { d.PackFaceQuarter(dir, side, 1, 0, v0, v1, buf) }},
			{"UnpackFaceQuarter", quarter, func(buf []float64) { d.UnpackFaceQuarter(dir, side, 0, 1, v0, v1, buf) }},
			{"UnpackFaceProlong", quarter, func(buf []float64) { d.UnpackFaceProlong(dir, side, v0, v1, buf) }},
		}
		for _, k := range kernels {
			buf := randBuf(rng, k.need)[:k.need-1]
			bufBefore := append([]float64(nil), buf...)
			func() {
				defer func() {
					msg, _ := recover().(string)
					if !strings.HasPrefix(msg, "grid: ") {
						t.Fatalf("%s %s: short buffer gave panic %q, want a grid: message", k.name, what, msg)
					}
				}()
				k.call(buf)
			}()
			sameBits(t, k.name+" "+what+" block after rejected call", d.cells, before.cells)
			sameBits(t, k.name+" "+what+" buffer after rejected call", buf, bufBefore)
		}
	})
}

// TestConcurrentStencilOnDisjointGroups stencils the variable groups of
// one block from several goroutines at once (as the data-flow driver
// does); run under -race it proves the groups share no written cell, in
// cells or in scratch.
func TestConcurrentStencilOnDisjointGroups(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const vars = 8
	for _, size := range refShapes {
		got := randBlock(rng, size, vars)
		want := got.Clone()
		for sweep := 0; sweep < 3; sweep++ {
			var wg sync.WaitGroup
			for v0 := 0; v0 < vars; v0 += 2 {
				wg.Add(1)
				go func(v0 int) {
					defer wg.Done()
					got.Stencil7(v0, v0+2)
				}(v0)
			}
			wg.Wait()
			refStencil7(want, 0, vars)
			sameBits(t, fmt.Sprintf("%dx%dx%d sweep %d", size.X, size.Y, size.Z, sweep), got.cells, want.cells)
		}
	}
}
