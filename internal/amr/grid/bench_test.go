package grid

import (
	"fmt"
	"testing"
)

func benchBlock(b *testing.B, edge, vars int) *Data {
	b.Helper()
	d := MustNewData(Size{X: edge, Y: edge, Z: edge}, vars)
	d.Fill([3]float64{0, 0, 0}, [3]float64{1 / float64(edge), 1 / float64(edge), 1 / float64(edge)},
		func(v int, x, y, z float64) float64 { return x + 2*y - z + float64(v)*0.1 })
	fillAllGhosts(d, 0, vars)
	return d
}

// benchShapes are the two block shapes of the repository benchmark's
// miniAMR workloads: the kernel-heavy one and the few-microsecond one,
// where a row is 6 cells and per-row overhead decides the cost.
var benchShapes = []struct{ edge, vars int }{{12, 8}, {6, 4}}

// faceCase is what a face benchmark works on: a block with a smooth
// field, a second block of its shape, and a packed face of all variables.
type faceCase struct {
	d, peer *Data
	dir     Dir
	vars    int
	buf     []float64
}

// benchFaces runs fn once per shape x direction as a sub-benchmark;
// fn's throughput is reported over the face's cells (8 bytes each).
func benchFaces(b *testing.B, quarter bool, fn func(c *faceCase)) {
	for _, s := range benchShapes {
		for _, dir := range []Dir{DirX, DirY, DirZ} {
			b.Run(fmt.Sprintf("block=%dx%d/dir=%v", s.edge, s.vars, dir), func(b *testing.B) {
				d := benchBlock(b, s.edge, s.vars)
				c := &faceCase{d: d, peer: MustNewData(d.size, s.vars), dir: dir, vars: s.vars,
					buf: make([]float64, d.FaceLen(dir, 0, s.vars))}
				d.PackFace(dir, High, 0, s.vars, c.buf)
				n := len(c.buf)
				if quarter {
					n = d.QuarterFaceLen(dir, 0, s.vars)
				}
				b.SetBytes(int64(8 * n))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					fn(c)
				}
			})
		}
	}
}

func BenchmarkStencil7(b *testing.B) {
	for _, s := range []struct{ edge, vars int }{{6, 4}, {8, 8}, {12, 8}, {18, 8}} {
		b.Run(fmt.Sprintf("block=%dx%d", s.edge, s.vars), func(b *testing.B) {
			d := benchBlock(b, s.edge, s.vars)
			b.SetBytes(int64(8 * d.Size().Cells() * d.Vars()))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.Stencil7(0, s.vars)
			}
			b.ReportMetric(float64(d.Stencil7Flops(0, s.vars))*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
		})
	}
}

func BenchmarkStencil27(b *testing.B) {
	d := benchBlock(b, 12, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Stencil27(0, 8)
	}
	b.ReportMetric(float64(d.Stencil27Flops(0, 8))*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
}

func BenchmarkPackFace(b *testing.B) {
	benchFaces(b, false, func(c *faceCase) { c.d.PackFace(c.dir, High, 0, c.vars, c.buf) })
}

func BenchmarkUnpackFace(b *testing.B) {
	benchFaces(b, false, func(c *faceCase) { c.d.UnpackFace(c.dir, Low, 0, c.vars, c.buf) })
}

func BenchmarkCopyFaceTo(b *testing.B) {
	benchFaces(b, false, func(c *faceCase) { c.d.CopyFaceTo(c.peer, c.dir, High, 0, c.vars) })
}

func BenchmarkPackFaceRestrict(b *testing.B) {
	benchFaces(b, true, func(c *faceCase) { c.d.PackFaceRestrict(c.dir, Low, 0, c.vars, c.buf) })
}

func BenchmarkUnpackFaceProlong(b *testing.B) {
	benchFaces(b, true, func(c *faceCase) { c.d.UnpackFaceProlong(c.dir, High, 0, c.vars, c.buf) })
}

// benchFamily returns a parent and eight children of one shape, all
// holding a smooth field.
func benchFamily(b *testing.B, edge, vars int) (*Data, *[8]*Data) {
	var children [8]*Data
	for o := range children {
		children[o] = benchBlock(b, edge, vars)
	}
	return benchBlock(b, edge, vars), &children
}

func BenchmarkSplitInto(b *testing.B) {
	for _, s := range benchShapes {
		b.Run(fmt.Sprintf("block=%dx%d", s.edge, s.vars), func(b *testing.B) {
			parent, children := benchFamily(b, s.edge, s.vars)
			b.SetBytes(int64(8 * 8 * parent.InteriorLen()))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				parent.SplitInto(children)
			}
		})
	}
}

func BenchmarkConsolidateFrom(b *testing.B) {
	for _, s := range benchShapes {
		b.Run(fmt.Sprintf("block=%dx%d", s.edge, s.vars), func(b *testing.B) {
			parent, children := benchFamily(b, s.edge, s.vars)
			b.SetBytes(int64(8 * 8 * parent.InteriorLen()))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				parent.ConsolidateFrom(children)
			}
		})
	}
}

func BenchmarkChecksum(b *testing.B) {
	d := benchBlock(b, 12, 8)
	out := make([]float64, 8)
	b.SetBytes(int64(8 * d.InteriorLen()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Checksum(0, 8, out)
	}
}

func BenchmarkPackInterior(b *testing.B) {
	d := benchBlock(b, 12, 8)
	buf := make([]float64, d.InteriorLen())
	b.SetBytes(int64(8 * d.InteriorLen()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.PackInterior(buf)
	}
}
