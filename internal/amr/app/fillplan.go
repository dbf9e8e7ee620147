package app

import (
	"fmt"

	"miniamr/internal/amr/comm"
	"miniamr/internal/amr/grid"
	"miniamr/internal/amr/mesh"
)

// fillPlan is the intra-rank half of the ghost exchange of one mesh epoch,
// regrouped for the data-flow driver from the three per-direction
// schedules into one entry per destination block: every Schedule.Local
// transfer into the block and every Schedule.Boundary face of it. One
// task per entry fills all of that block's ghosts that no message fills.
//
// The plan is flat: blocks index runs of copies, faces and srcs, and a
// rebuild reuses their storage. It is rebuilt only at quiesced points
// (after rebuildComm) and never written between two of them, so tasks in
// flight may read it freely.
type fillPlan struct {
	blocks []fillBlock
	copies []comm.Transfer // by destination, directions in order within one
	faces  []fillFace      // by block
	// srcs are the blocks whose interiors each fill reads, as indices into
	// state.owned(): the source of each of its copies, then the block
	// itself if it has boundary faces (the zero-gradient condition copies
	// its own outermost cells).
	srcs []int
}

// fillBlock is one destination block of a fillPlan: its index in
// state.owned() and the end offsets of its runs in the plan's copies,
// faces and srcs (each run starts where the previous block's ends).
type fillBlock struct {
	owned               int
	copies, faces, srcs int
}

// fillFace is one domain-boundary face of a destination block.
type fillFace struct {
	dir  grid.Dir
	side grid.Side
}

// build derives the plan from the rank's blocks and its three schedules.
// comm.Schedule lists Local and Boundary by receiving block in the order of
// owned, so one cursor per list and direction regroups them without a
// lookup table.
func (p *fillPlan) build(owned []mesh.Coord, scheds *[3]*comm.Schedule) {
	p.blocks, p.copies, p.faces, p.srcs = p.blocks[:0], p.copies[:0], p.faces[:0], p.srcs[:0]
	var local, bound [3]int
	for i, bc := range owned {
		for dir, sc := range scheds {
			for l := &local[dir]; *l < len(sc.Local) && sc.Local[*l].Recv == bc; *l++ {
				tr := sc.Local[*l]
				p.copies = append(p.copies, tr)
				p.srcs = append(p.srcs, ownedIndex(owned, tr.Src))
			}
			for b := &bound[dir]; *b < len(sc.Boundary) && sc.Boundary[*b].Block == bc; *b++ {
				p.faces = append(p.faces, fillFace{dir: sc.Dir, side: sc.Boundary[*b].Side})
			}
		}
		last := fillBlock{}
		if len(p.blocks) > 0 {
			last = p.blocks[len(p.blocks)-1]
		}
		if len(p.faces) > last.faces {
			p.srcs = append(p.srcs, i)
		}
		if len(p.srcs) > last.srcs {
			p.blocks = append(p.blocks, fillBlock{owned: i, copies: len(p.copies), faces: len(p.faces), srcs: len(p.srcs)})
		}
	}
	for dir, sc := range scheds {
		if local[dir] != len(sc.Local) || bound[dir] != len(sc.Boundary) {
			panic(fmt.Sprintf("app: direction %v schedule of rank %d is not in owned-block order", sc.Dir, sc.Rank))
		}
	}
}
