// Package comm plans and executes the ghost-face exchanges of the AMR
// application.
//
// For a rank, a direction and the replicated mesh, it derives a Schedule:
// the intra-rank face copies, the per-peer lists of face transfers to send
// and receive, and the domain-boundary faces needing boundary conditions.
// Transfer lists are enumerated in a canonical global order, so the sender
// and the receiver of a pair independently derive identical lists — the
// property that lets face data travel in aggregated messages with
// positional layouts and lets both sides compute matching MPI tags, the
// way miniAMR's sender and receiver know face identifiers beforehand.
//
// The same Schedule feeds all three execution strategies (sequential
// MPI-only, fork-join, and the task-based data-flow variant); only the
// driver differs in how it walks the schedule.
package comm

import (
	"fmt"

	"miniamr/internal/amr/grid"
	"miniamr/internal/amr/mesh"
)

// Transfer is one face transfer into a receiving block, described from the
// receiver's perspective.
type Transfer struct {
	// Recv is the block whose ghost face is filled.
	Recv mesh.Coord
	// Src is the block supplying the face.
	Src mesh.Coord
	// Dir is the exchange direction.
	Dir grid.Dir
	// RecvSide is the face of Recv being filled; Src packs the opposite
	// side.
	RecvSide grid.Side
	// Rel is Src's refinement level relative to Recv.
	Rel mesh.Rel
	// Qu, Qw locate the shared quarter face: if Src is finer, the quarter
	// of Recv's face it covers; if Src is coarser, the quarter of Src's
	// face that Recv covers. Unused for same-level transfers.
	Qu, Qw int
	// lenPerVar is the payload length per variable.
	lenPerVar int
}

// Len returns the payload length for a variable group of the given width.
func (t Transfer) Len(groupVars int) int { return t.lenPerVar * groupVars }

// BoundaryFace is a face of an owned block at the domain boundary.
type BoundaryFace struct {
	Block mesh.Coord
	Side  grid.Side
}

// PeerExchange groups the transfers between this rank and one peer in one
// direction. Send lists what this rank's blocks contribute to the peer;
// Recv lists what this rank's blocks receive. Both are in canonical order.
type PeerExchange struct {
	Peer int
	Send []Transfer
	Recv []Transfer
}

// Schedule is the complete exchange plan of one rank in one direction.
// Local and Boundary list their entries by receiving block, the blocks in
// the order of mesh.Owned: all entries of one block are adjacent, so a
// consumer can regroup the three directions per block with one cursor each.
type Schedule struct {
	Rank     int
	Dir      grid.Dir
	Local    []Transfer
	Boundary []BoundaryFace
	Peers    []PeerExchange // sorted by peer rank
}

// BuildSchedule derives the rank's exchange plan for one direction from
// the replicated mesh. Every rank derives consistent plans: rank A's send
// list to B equals rank B's receive list from A, element for element.
func BuildSchedule(m *mesh.Mesh, rank int, dir grid.Dir, size grid.Size) (*Schedule, error) {
	s := &Schedule{Rank: rank, Dir: dir}
	peerIdx := make(map[int]int)
	peer := func(r int) *PeerExchange {
		if i, ok := peerIdx[r]; ok {
			return &s.Peers[i]
		}
		peerIdx[r] = len(s.Peers)
		s.Peers = append(s.Peers, PeerExchange{Peer: r})
		return &s.Peers[len(s.Peers)-1]
	}

	sameLen := faceCellsFor(size, dir)
	quarterLen := quarterCellsFor(size, dir)

	// Canonical order: all leaves sorted, Low face then High face, then the
	// neighbour order returned by the mesh.
	var nb [4]mesh.Neighbor
	for _, b := range m.Leaves() {
		ownerB := m.Owner(b)
		for _, side := range []grid.Side{grid.Low, grid.High} {
			ns, err := m.Neighbors(b, dir, side, &nb)
			if err != nil {
				return nil, fmt.Errorf("comm: building schedule: %w", err)
			}
			if ns == nil {
				if ownerB == rank {
					s.Boundary = append(s.Boundary, BoundaryFace{Block: b, Side: side})
				}
				continue
			}
			for _, n := range ns {
				ownerN := m.Owner(n.Coord)
				if ownerB != rank && ownerN != rank {
					continue
				}
				lpv := sameLen
				if n.Rel != mesh.Same {
					lpv = quarterLen
				}
				tr := Transfer{
					Recv: b, Src: n.Coord, Dir: dir, RecvSide: side,
					Rel: n.Rel, Qu: n.Qu, Qw: n.Qw, lenPerVar: lpv,
				}
				switch {
				case ownerB == rank && ownerN == rank:
					s.Local = append(s.Local, tr)
				case ownerB == rank:
					peer(ownerN).Recv = append(peer(ownerN).Recv, tr)
				default:
					peer(ownerB).Send = append(peer(ownerB).Send, tr)
				}
			}
		}
	}
	sortPeers(s.Peers)
	return s, nil
}

func sortPeers(ps []PeerExchange) {
	// Insertion sort: peer counts are tiny (6-ish neighbours).
	for i := 1; i < len(ps); i++ {
		for j := i; j > 0 && ps[j].Peer < ps[j-1].Peer; j-- {
			ps[j], ps[j-1] = ps[j-1], ps[j]
		}
	}
}

func faceCellsFor(size grid.Size, dir grid.Dir) int {
	switch dir {
	case grid.DirX:
		return size.Y * size.Z
	case grid.DirY:
		return size.X * size.Z
	default:
		return size.X * size.Y
	}
}

func quarterCellsFor(size grid.Size, dir grid.Dir) int {
	return faceCellsFor(size, dir) / 4
}

// Pack packs the transfer's face from the source block into buf and
// returns the count written. The source block packs its side opposite to
// RecvSide.
func Pack(tr Transfer, src *grid.Data, v0, v1 int, buf []float64) int {
	side := tr.RecvSide.Opposite()
	switch tr.Rel {
	case mesh.Same:
		return src.PackFace(tr.Dir, side, v0, v1, buf)
	case mesh.Finer: // source finer than receiver: restrict
		return src.PackFaceRestrict(tr.Dir, side, v0, v1, buf)
	default: // source coarser: send the quarter the receiver covers
		return src.PackFaceQuarter(tr.Dir, side, tr.Qu, tr.Qw, v0, v1, buf)
	}
}

// Unpack unpacks the transfer's payload into the receiving block's ghost
// face and returns the count consumed.
func Unpack(tr Transfer, dst *grid.Data, v0, v1 int, buf []float64) int {
	switch tr.Rel {
	case mesh.Same:
		return dst.UnpackFace(tr.Dir, tr.RecvSide, v0, v1, buf)
	case mesh.Finer: // restricted payload lands in a quarter of our face
		return dst.UnpackFaceQuarter(tr.Dir, tr.RecvSide, tr.Qu, tr.Qw, v0, v1, buf)
	default: // coarse payload prolongs onto our fine ghosts
		return dst.UnpackFaceProlong(tr.Dir, tr.RecvSide, v0, v1, buf)
	}
}

// ExecuteLocal performs an intra-rank transfer. Same-level copies go
// directly; cross-level copies stage through scratch, which must hold
// Len(v1-v0) values.
func ExecuteLocal(tr Transfer, src, dst *grid.Data, v0, v1 int, scratch []float64) {
	if tr.Rel == mesh.Same {
		src.CopyFaceTo(dst, tr.Dir, tr.RecvSide.Opposite(), v0, v1)
		return
	}
	n := Pack(tr, src, v0, v1, scratch)
	Unpack(tr, dst, v0, v1, scratch[:n])
}

// Chunk splits a canonical transfer list into contiguous message groups:
//
//   - maxMessages == 1 reproduces the reference default: the whole list as
//     a single aggregated message per peer and direction;
//   - maxMessages <= 0 reproduces --send_faces with unlimited tasks: one
//     message per face;
//   - otherwise at most maxMessages contiguous groups balanced by
//     transfer count (--send_faces with --max_comm_tasks).
//
// Both ends derive identical chunkings from their identical lists.
func Chunk(ts []Transfer, maxMessages int) [][]Transfer {
	if len(ts) == 0 {
		return nil
	}
	if maxMessages <= 0 || maxMessages >= len(ts) {
		out := make([][]Transfer, len(ts))
		for i := range ts {
			out[i] = ts[i : i+1]
		}
		return out
	}
	out := make([][]Transfer, 0, maxMessages)
	for g := 0; g < maxMessages; g++ {
		lo := g * len(ts) / maxMessages
		hi := (g + 1) * len(ts) / maxMessages
		if lo < hi {
			out = append(out, ts[lo:hi])
		}
	}
	return out
}

// MessageLen sums the payload lengths of a message's transfers.
func MessageLen(ts []Transfer, groupVars int) int {
	n := 0
	for _, t := range ts {
		n += t.Len(groupVars)
	}
	return n
}

// Tag computes the MPI tag for a message: unique per (direction, message
// index) within a sender/receiver pair, and disjoint from the tag spaces
// used by the refinement exchange. Reuse across stages is safe because MPI
// ordering is non-overtaking per (source, tag).
func Tag(dir grid.Dir, msgIdx int) int {
	const dirBase = 1 << 20
	if msgIdx < 0 || msgIdx >= dirBase {
		panic(fmt.Sprintf("comm: message index %d out of tag range", msgIdx))
	}
	return (int(dir)+1)*dirBase + msgIdx
}
