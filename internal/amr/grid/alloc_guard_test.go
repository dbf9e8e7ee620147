package grid

import (
	"testing"

	"miniamr/internal/allocguard"
)

// TestAllocBudgets is the kernels' allocation table: every face, stencil,
// checksum and refinement kernel works in the storage it is given, and
// their shape checks box their values only on the panic path (see fail).
func TestAllocBudgets(t *testing.T) {
	size, vars := Size{8, 8, 8}, 4
	d, o := MustNewData(size, vars), MustNewData(size, vars)
	var kids [8]*Data
	for i := range kids {
		kids[i] = MustNewData(size, vars)
	}
	buf := make([]float64, d.FaceLen(DirX, 0, vars))
	sums := make([]float64, vars)
	allocguard.Check(t, []allocguard.Row{
		{"PackFace+UnpackFace", 0, func() {
			d.UnpackFace(DirZ, Low, 0, vars, buf[:d.PackFace(DirZ, High, 0, vars, buf)])
		}},
		{"CopyFaceTo", 0, func() { d.CopyFaceTo(o, DirY, Low, 0, vars) }},
		{"PackFaceRestrict+UnpackFaceQuarter", 0, func() {
			o.UnpackFaceQuarter(DirX, Low, 1, 0, 0, vars, buf[:d.PackFaceRestrict(DirX, High, 0, vars, buf)])
		}},
		{"PackFaceQuarter+UnpackFaceProlong", 0, func() {
			o.UnpackFaceProlong(DirY, Low, 0, vars, buf[:d.PackFaceQuarter(DirY, High, 0, 1, 0, vars, buf)])
		}},
		{"ApplyDomainBoundary", 0, func() { d.ApplyDomainBoundary(DirZ, High, 0, vars) }},
		{"Stencil7", 0, func() { d.Stencil7(0, vars) }},
		{"Checksum", 0, func() { d.Checksum(0, vars, sums) }},
		{"SplitInto+ConsolidateFrom", 0, func() { d.SplitInto(&kids); d.ConsolidateFrom(&kids) }},
	})
}
