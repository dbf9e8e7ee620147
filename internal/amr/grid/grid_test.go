package grid

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randBlock(rng *rand.Rand, size Size, vars int) *Data {
	d := MustNewData(size, vars)
	for i := range d.cells {
		d.cells[i] = rng.Float64()*2 - 1
	}
	return d
}

func TestSizeValidate(t *testing.T) {
	if err := (Size{4, 6, 2}).Validate(); err != nil {
		t.Errorf("valid size rejected: %v", err)
	}
	for _, s := range []Size{{0, 2, 2}, {3, 2, 2}, {2, -2, 2}, {2, 2, 5}} {
		if err := s.Validate(); err == nil {
			t.Errorf("size %+v accepted", s)
		}
	}
	if (Size{4, 6, 2}).Cells() != 48 {
		t.Error("Cells mismatch")
	}
}

func TestNewDataValidation(t *testing.T) {
	if _, err := NewData(Size{2, 2, 2}, 0); err == nil {
		t.Error("vars=0 accepted")
	}
	if _, err := NewData(Size{3, 2, 2}, 1); err == nil {
		t.Error("odd size accepted")
	}
	d := MustNewData(Size{4, 4, 4}, 3)
	if d.Vars() != 3 || d.Size() != (Size{4, 4, 4}) {
		t.Error("accessors mismatch")
	}
}

func TestAtSetRoundTrip(t *testing.T) {
	d := MustNewData(Size{2, 4, 6}, 2)
	d.Set(1, 2, 3, 4, 9.5)
	if d.At(1, 2, 3, 4) != 9.5 {
		t.Error("At/Set mismatch")
	}
	if d.At(0, 2, 3, 4) != 0 {
		t.Error("cross-variable aliasing")
	}
}

func TestFillEvaluatesCellCenters(t *testing.T) {
	d := MustNewData(Size{2, 2, 2}, 1)
	d.Fill([3]float64{0, 0, 0}, [3]float64{0.5, 0.5, 0.5}, func(v int, x, y, z float64) float64 {
		return x + 10*y + 100*z
	})
	// Cell (1,1,1) center = (0.25, 0.25, 0.25).
	want := 0.25 + 2.5 + 25
	if got := d.At(0, 1, 1, 1); math.Abs(got-want) > 1e-12 {
		t.Errorf("cell(1,1,1) = %v, want %v", got, want)
	}
	// Cell (2,1,1) center x = 0.75.
	want = 0.75 + 2.5 + 25
	if got := d.At(0, 2, 1, 1); math.Abs(got-want) > 1e-12 {
		t.Errorf("cell(2,1,1) = %v, want %v", got, want)
	}
	// Ghosts untouched.
	if d.At(0, 0, 1, 1) != 0 {
		t.Error("Fill wrote a ghost cell")
	}
}

func TestPackUnpackFaceRoundTripAllDirs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	size := Size{4, 6, 8}
	src := randBlock(rng, size, 3)
	for _, dir := range []Dir{DirX, DirY, DirZ} {
		for _, side := range []Side{Low, High} {
			dst := MustNewData(size, 3)
			buf := make([]float64, src.FaceLen(dir, 0, 3))
			if n := src.PackFace(dir, side, 0, 3, buf); n != len(buf) {
				t.Fatalf("%v/%v: packed %d, want %d", dir, side, n, len(buf))
			}
			// Unpack into the opposite side's ghost of dst (as a neighbour would).
			opp := side.Opposite()
			if n := dst.UnpackFace(dir, opp, 0, 3, buf); n != len(buf) {
				t.Fatalf("%v/%v: unpacked wrong count", dir, side)
			}
			// dst's ghost plane must equal src's boundary plane.
			u, w := src.faceDims(dir)
			cSrc := src.boundaryPlane(dir, side)
			cDst := dst.ghostPlane(dir, opp)
			for v := 0; v < 3; v++ {
				for iu := 1; iu <= u; iu++ {
					for iw := 1; iw <= w; iw++ {
						if dst.cells[refPlaneIdx(dst, dir, v, cDst, iu, iw)] != src.cells[refPlaneIdx(src, dir, v, cSrc, iu, iw)] {
							t.Fatalf("%v/%v: ghost mismatch at v=%d u=%d w=%d", dir, side, v, iu, iw)
						}
					}
				}
			}
		}
	}
}

func TestCopyFaceToMatchesPackUnpack(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	size := Size{4, 4, 4}
	for _, dir := range []Dir{DirX, DirY, DirZ} {
		for _, side := range []Side{Low, High} {
			src := randBlock(rng, size, 2)
			viaCopy := MustNewData(size, 2)
			viaBuf := MustNewData(size, 2)
			src.CopyFaceTo(viaCopy, dir, side, 0, 2)
			buf := make([]float64, src.FaceLen(dir, 0, 2))
			src.PackFace(dir, side, 0, 2, buf)
			viaBuf.UnpackFace(dir, side.Opposite(), 0, 2, buf)
			for i := range viaCopy.cells {
				if viaCopy.cells[i] != viaBuf.cells[i] {
					t.Fatalf("%v/%v: direct copy differs from pack/unpack", dir, side)
				}
			}
		}
	}
}

func TestVariableGroupIsolation(t *testing.T) {
	// Packing group [1,2) must not touch variables 0 or 2.
	rng := rand.New(rand.NewSource(3))
	src := randBlock(rng, Size{2, 2, 2}, 3)
	dst := MustNewData(Size{2, 2, 2}, 3)
	buf := make([]float64, src.FaceLen(DirX, 1, 2))
	src.PackFace(DirX, High, 1, 2, buf)
	dst.UnpackFace(DirX, Low, 1, 2, buf)
	if dst.At(1, 0, 1, 1) != src.At(1, 2, 1, 1) {
		t.Error("group variable not transferred")
	}
	if dst.At(0, 0, 1, 1) != 0 || dst.At(2, 0, 1, 1) != 0 {
		t.Error("out-of-group variable modified")
	}
}

func TestRestrictionAveragesQuartets(t *testing.T) {
	size := Size{4, 4, 4}
	fine := MustNewData(size, 1)
	// Boundary plane at i=4 (DirX High): value = j + 10k.
	for j := 1; j <= 4; j++ {
		for k := 1; k <= 4; k++ {
			fine.Set(0, 4, j, k, float64(j)+10*float64(k))
		}
	}
	buf := make([]float64, fine.QuarterFaceLen(DirX, 0, 1))
	if n := fine.PackFaceRestrict(DirX, High, 0, 1, buf); n != 4 {
		t.Fatalf("restricted count = %d, want 4", n)
	}
	// First entry: average of (j,k) in {1,2}x{1,2} = avg(j)+10*avg(k) = 1.5+15.
	if math.Abs(buf[0]-16.5) > 1e-12 {
		t.Errorf("buf[0] = %v, want 16.5", buf[0])
	}
	// Last entry: (j,k) in {3,4}x{3,4} = 3.5 + 35.
	if math.Abs(buf[3]-38.5) > 1e-12 {
		t.Errorf("buf[3] = %v, want 38.5", buf[3])
	}
}

func TestQuarterUnpackPlacesQuadrant(t *testing.T) {
	size := Size{4, 4, 4}
	coarse := MustNewData(size, 1)
	buf := []float64{1, 2, 3, 4} // 2x2 restricted values
	coarse.UnpackFaceQuarter(DirX, Low, 1, 0, 0, 1, buf)
	// Quadrant (qu=1, qw=0): u (j) offset by 2, w (k) not offset.
	if coarse.At(0, 0, 3, 1) != 1 || coarse.At(0, 0, 3, 2) != 2 ||
		coarse.At(0, 0, 4, 1) != 3 || coarse.At(0, 0, 4, 2) != 4 {
		t.Error("quadrant placement wrong")
	}
	if coarse.At(0, 0, 1, 1) != 0 {
		t.Error("wrote outside the quadrant")
	}
}

func TestQuarterPackProlongRoundTrip(t *testing.T) {
	// Coarse packs a quarter of its face; fine prolongs it: every 2x2 fine
	// ghost group must hold the coarse value.
	size := Size{4, 4, 4}
	coarse := MustNewData(size, 2)
	rng := rand.New(rand.NewSource(4))
	for v := 0; v < 2; v++ {
		for j := 1; j <= 4; j++ {
			for k := 1; k <= 4; k++ {
				coarse.Set(v, 4, j, k, rng.Float64())
			}
		}
	}
	fine := MustNewData(size, 2)
	buf := make([]float64, coarse.QuarterFaceLen(DirX, 0, 2))
	if n := coarse.PackFaceQuarter(DirX, High, 0, 1, 0, 2, buf); n != len(buf) {
		t.Fatalf("packed %d, want %d", n, len(buf))
	}
	if n := fine.UnpackFaceProlong(DirX, Low, 0, 2, buf); n != len(buf) {
		t.Fatal("prolong consumed wrong count")
	}
	// Fine ghost (v, 0, j, k) = coarse boundary (v, 4, qu*2 + (j+1)/2, qw*2 + (k+1)/2),
	// with qu=0, qw=1 selecting the k-upper quarter.
	for v := 0; v < 2; v++ {
		for j := 1; j <= 4; j++ {
			for k := 1; k <= 4; k++ {
				want := coarse.At(v, 4, (j+1)/2, 2+(k+1)/2)
				if got := fine.At(v, 0, j, k); got != want {
					t.Fatalf("fine ghost (%d,%d,%d) = %v, want %v", v, j, k, got, want)
				}
			}
		}
	}
}

func TestRestrictThenPlacementConsistency(t *testing.T) {
	// A constant fine face must restrict to the same constant.
	fine := MustNewData(Size{4, 4, 4}, 1)
	for j := 1; j <= 4; j++ {
		for k := 1; k <= 4; k++ {
			fine.Set(0, 1, j, k, 3.75)
		}
	}
	buf := make([]float64, fine.QuarterFaceLen(DirX, 0, 1))
	fine.PackFaceRestrict(DirX, Low, 0, 1, buf)
	for _, v := range buf {
		if v != 3.75 {
			t.Fatalf("restriction of constant face changed value: %v", v)
		}
	}
}

func TestApplyDomainBoundaryZeroGradient(t *testing.T) {
	d := MustNewData(Size{2, 2, 2}, 1)
	d.Set(0, 1, 1, 1, 5)
	d.Set(0, 1, 2, 2, 7)
	d.ApplyDomainBoundary(DirX, Low, 0, 1)
	if d.At(0, 0, 1, 1) != 5 || d.At(0, 0, 2, 2) != 7 {
		t.Error("zero-gradient ghost mismatch")
	}
}

func TestStencilConstantFieldInvariant(t *testing.T) {
	d := MustNewData(Size{4, 4, 4}, 2)
	d.Fill([3]float64{0, 0, 0}, [3]float64{0.25, 0.25, 0.25}, func(int, float64, float64, float64) float64 { return 2.5 })
	for _, dir := range []Dir{DirX, DirY, DirZ} {
		d.ApplyDomainBoundary(dir, Low, 0, 2)
		d.ApplyDomainBoundary(dir, High, 0, 2)
	}
	d.Stencil7(0, 2)
	for v := 0; v < 2; v++ {
		for i := 1; i <= 4; i++ {
			for j := 1; j <= 4; j++ {
				for k := 1; k <= 4; k++ {
					if got := d.At(v, i, j, k); math.Abs(got-2.5) > 1e-13 {
						t.Fatalf("constant field changed: cell(%d,%d,%d,%d)=%v", v, i, j, k, got)
					}
				}
			}
		}
	}
}

func TestStencilMatchesNaiveReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	size := Size{4, 6, 2}
	d := randBlock(rng, size, 2)
	ref := d.Clone()
	d.Stencil7(0, 2)
	for v := 0; v < 2; v++ {
		for i := 1; i <= size.X; i++ {
			for j := 1; j <= size.Y; j++ {
				for k := 1; k <= size.Z; k++ {
					want := (ref.At(v, i, j, k) +
						ref.At(v, i-1, j, k) + ref.At(v, i+1, j, k) +
						ref.At(v, i, j-1, k) + ref.At(v, i, j+1, k) +
						ref.At(v, i, j, k-1) + ref.At(v, i, j, k+1)) / 7
					if got := d.At(v, i, j, k); math.Abs(got-want) > 1e-15 {
						t.Fatalf("cell(%d,%d,%d,%d) = %v, want %v", v, i, j, k, got, want)
					}
				}
			}
		}
	}
}

func TestStencilGroupLeavesOtherVarsAlone(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	d := randBlock(rng, Size{2, 2, 2}, 3)
	ref := d.Clone()
	d.Stencil7(1, 2)
	for _, v := range []int{0, 2} {
		for i := 1; i <= 2; i++ {
			for j := 1; j <= 2; j++ {
				for k := 1; k <= 2; k++ {
					if d.At(v, i, j, k) != ref.At(v, i, j, k) {
						t.Fatalf("variable %d changed by out-of-group stencil", v)
					}
				}
			}
		}
	}
}

func TestStencilFlops(t *testing.T) {
	d := MustNewData(Size{4, 4, 4}, 3)
	if got := d.Stencil7Flops(0, 3); got != 3*64*7 {
		t.Errorf("flops = %d, want %d", got, 3*64*7)
	}
}

func TestChecksumDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := randBlock(rng, Size{4, 4, 4}, 2)
	a := make([]float64, 2)
	b := make([]float64, 2)
	d.Checksum(0, 2, a)
	d.Checksum(0, 2, b)
	if a[0] != b[0] || a[1] != b[1] {
		t.Error("checksum not reproducible")
	}
	// Ghosts must not contribute.
	d.Set(0, 0, 1, 1, 1e9)
	d.Checksum(0, 2, b)
	if a[0] != b[0] {
		t.Error("ghost cell contributed to checksum")
	}
}

func TestSplitConsolidateIdentity(t *testing.T) {
	// Piecewise-constant refinement followed by averaging coarsening must
	// reproduce the original block exactly.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		size := Size{4, 4, 4}
		parent := randBlock(rng, size, 2)
		orig := parent.Clone()
		var children [8]*Data
		for o := range children {
			children[o] = MustNewData(size, 2)
		}
		parent.SplitInto(&children)
		restored := MustNewData(size, 2)
		restored.ConsolidateFrom(&children)
		return restored.EqualInterior(orig)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestSplitOctantMapping(t *testing.T) {
	size := Size{2, 2, 2}
	parent := MustNewData(size, 1)
	// Give every parent cell a unique value keyed by coordinates.
	for i := 1; i <= 2; i++ {
		for j := 1; j <= 2; j++ {
			for k := 1; k <= 2; k++ {
				parent.Set(0, i, j, k, float64(100*i+10*j+k))
			}
		}
	}
	var children [8]*Data
	for o := range children {
		children[o] = MustNewData(size, 1)
	}
	parent.SplitInto(&children)
	// Octant 0 covers parent cell (1,1,1): all its cells equal 111.
	for i := 1; i <= 2; i++ {
		for j := 1; j <= 2; j++ {
			for k := 1; k <= 2; k++ {
				if children[0].At(0, i, j, k) != 111 {
					t.Fatalf("octant 0 cell (%d,%d,%d) = %v", i, j, k, children[0].At(0, i, j, k))
				}
			}
		}
	}
	// Octant 7 (x=1,y=1,z=1) covers parent cell (2,2,2) = 222.
	if children[7].At(0, 1, 1, 1) != 222 {
		t.Errorf("octant 7 = %v, want 222", children[7].At(0, 1, 1, 1))
	}
	// Octant 1 (x=1) covers parent (2,1,1) = 211.
	if children[1].At(0, 2, 2, 2) != 211 {
		t.Errorf("octant 1 = %v, want 211", children[1].At(0, 2, 2, 2))
	}
}

func TestPackUnpackInteriorRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	d := randBlock(rng, Size{4, 6, 2}, 3)
	buf := make([]float64, d.InteriorLen())
	if n := d.PackInterior(buf); n != len(buf) {
		t.Fatalf("packed %d, want %d", n, len(buf))
	}
	restored := MustNewData(Size{4, 6, 2}, 3)
	if n := restored.UnpackInterior(buf); n != len(buf) {
		t.Fatal("unpacked wrong count")
	}
	if !restored.EqualInterior(d) {
		t.Error("interior round trip mismatch")
	}
}

func TestCloneAndEqualInterior(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	d := randBlock(rng, Size{2, 2, 2}, 1)
	c := d.Clone()
	if !c.EqualInterior(d) {
		t.Error("clone differs")
	}
	c.Set(0, 1, 1, 1, 1e9)
	if c.EqualInterior(d) {
		t.Error("EqualInterior missed a difference")
	}
	other := MustNewData(Size{2, 2, 4}, 1)
	if other.EqualInterior(d) {
		t.Error("EqualInterior across shapes")
	}
}

func TestInvalidGroupPanics(t *testing.T) {
	d := MustNewData(Size{2, 2, 2}, 2)
	for _, g := range [][2]int{{-1, 1}, {0, 3}, {1, 1}, {2, 1}} {
		g := g
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("group %v did not panic", g)
				}
			}()
			d.Checksum(g[0], g[1], make([]float64, 4))
		}()
	}
}

func TestFaceLenAndQuarterLen(t *testing.T) {
	d := MustNewData(Size{4, 6, 8}, 2)
	if d.FaceLen(DirX, 0, 2) != 2*6*8 {
		t.Error("FaceLen X")
	}
	if d.FaceLen(DirY, 0, 1) != 4*8 {
		t.Error("FaceLen Y")
	}
	if d.FaceLen(DirZ, 0, 2) != 2*4*6 {
		t.Error("FaceLen Z")
	}
	if d.QuarterFaceLen(DirX, 0, 2) != 2*3*4 {
		t.Error("QuarterFaceLen X")
	}
	if d.FaceCells(DirZ) != 24 {
		t.Error("FaceCells Z")
	}
}

func TestDirSideStrings(t *testing.T) {
	if DirX.String() != "X" || DirY.String() != "Y" || DirZ.String() != "Z" {
		t.Error("Dir strings")
	}
	if Low.String() != "low" || High.String() != "high" {
		t.Error("Side strings")
	}
	if Low.Opposite() != High || High.Opposite() != Low {
		t.Error("Opposite")
	}
}
