package app

import (
	"fmt"

	"miniamr/internal/amr/balance"
	"miniamr/internal/amr/grid"
	"miniamr/internal/amr/mesh"
)

// Tag layout of the refinement/load-balance exchange, disjoint from the
// ghost-face tag space (which uses bases 1..3 << 20).
const (
	exchangeBase = 4 << 20
	exchangeAck  = exchangeBase     // receiver -> sender: capacity yes/no
	exchangeID   = exchangeBase + 1 // sender -> receiver: block identifier
	exchangeData = exchangeBase + 2 // + move index: the block payload
)

// blockMover abstracts how a variant transfers block payloads: the loop
// driver does it inline with blocking operations on the master, the
// data-flow driver spawns TAMPI tasks. Control messages always flow on the
// calling (main) goroutine, matching the paper's design.
type blockMover interface {
	// begin opens a run of the protocol over the given number of moves;
	// their data tags are exchangeData plus the move's index.
	begin(moves int)
	// sendBlock transmits the payload of an owned block to rank `to` with
	// the given tag. It may run asynchronously until barrier.
	sendBlock(bc mesh.Coord, d *grid.Data, to, tag int)
	// recvBlock produces the storage for an incoming block and arranges
	// for the payload from rank `from` to land in it, possibly
	// asynchronously until barrier.
	recvBlock(bc mesh.Coord, from, tag int) *grid.Data
	// barrier completes all outstanding transfers of the current round.
	barrier() error
}

// exchangeBlocks runs the block exchange protocol of the paper's Section
// IV-B: the receiver acknowledges capacity, the sender then transmits the
// block identifier as a control message and the block data tagged with it.
// When receivers run out of space, leftover moves retry in further rounds.
//
// Capacity decisions are a deterministic function of replicated state
// (per-rank block counts against the configured limit), so every rank —
// including bystanders — simulates the same accept/reject sequence and
// applies identical ownership updates, while the ACK and id control
// messages still flow for protocol fidelity.
func (s *state) exchangeBlocks(moves []mesh.Move, mv blockMover) error {
	if len(moves) == 0 {
		return nil
	}
	limit := s.cfg.maxBlocks(s.msh.Len(), s.comm.Size())
	counts := make(map[int]int)
	for _, c := range s.msh.Leaves() {
		counts[s.msh.Owner(c)]++
	}
	// Stable global move indices tag the data messages ("block ids").
	type idxMove struct {
		mesh.Move
		id int
	}
	pending := make([]idxMove, len(moves))
	for i, m := range moves {
		pending[i] = idxMove{Move: m, id: i}
	}
	// One pooled control word serves every ACK and id message: the
	// protocol runs sequentially on the main goroutine and sends copy
	// eagerly, so the buffer can be reused immediately.
	ctl := s.arena.GetInt(1)
	defer s.arena.PutInt(ctl)
	mv.begin(len(moves))

	for round := 0; len(pending) > 0; round++ {
		if round > 2*len(moves)+2 {
			return fmt.Errorf("app: block exchange stuck after %d rounds with %d moves pending (capacity %d too small?)",
				round, len(pending), limit)
		}
		// Deterministic accept/reject for this round.
		accepted := make([]bool, len(pending))
		incoming := make(map[int]int)
		for i, m := range pending {
			if counts[m.To]+incoming[m.To] < limit {
				accepted[i] = true
				incoming[m.To]++
			}
		}
		// Receivers acknowledge capacity for each pending inbound move.
		for i, m := range pending {
			if m.To != s.rank {
				continue
			}
			ctl[0] = 0
			if accepted[i] {
				ctl[0] = 1
			}
			if err := s.comm.Send(ctl, m.From, exchangeAck); err != nil {
				return err
			}
		}
		// Senders consume ACKs in order; on acceptance they send the block
		// id and start the data transfer.
		for i, m := range pending {
			if m.From != s.rank {
				continue
			}
			if _, err := s.comm.Recv(ctl, m.To, exchangeAck); err != nil {
				return err
			}
			if (ctl[0] == 1) != accepted[i] {
				return fmt.Errorf("app: exchange protocol divergence: move %d ack %d, simulated %v", m.id, ctl[0], accepted[i])
			}
			if !accepted[i] {
				continue
			}
			ctl[0] = m.id
			if err := s.comm.Send(ctl, m.To, exchangeID); err != nil {
				return err
			}
			d, ok := s.data[m.Block]
			if !ok {
				return fmt.Errorf("app: exchange of %v: sender %d has no data", m.Block, s.rank)
			}
			mv.sendBlock(m.Block, d, m.To, exchangeData+m.id)
		}
		// Receivers consume ids for accepted inbound moves and start the
		// data reception.
		arrivals := make(map[mesh.Coord]*grid.Data)
		for i, m := range pending {
			if m.To != s.rank || !accepted[i] {
				continue
			}
			if _, err := s.comm.Recv(ctl, m.From, exchangeID); err != nil {
				return err
			}
			if ctl[0] != m.id {
				return fmt.Errorf("app: exchange id mismatch: got %d, want %d", ctl[0], m.id)
			}
			arrivals[m.Block] = mv.recvBlock(m.Block, m.From, exchangeData+m.id)
		}
		if err := mv.barrier(); err != nil {
			return err
		}
		// Commit the round: bookkeeping on every rank, data maps on the
		// participants.
		var rest []idxMove
		for i, m := range pending {
			if !accepted[i] {
				rest = append(rest, m)
				continue
			}
			counts[m.From]--
			counts[m.To]++
			s.msh.SetOwner(m.Block, m.To)
			if m.From == s.rank {
				// Safe to reclaim: barrier drained the mover's async pack
				// tasks, so nothing reads the block's storage anymore.
				s.releaseBlock(s.data[m.Block])
				delete(s.data, m.Block)
			}
			if m.To == s.rank {
				s.data[m.Block] = arrivals[m.Block]
			}
		}
		if len(rest) == len(pending) {
			return fmt.Errorf("app: block exchange made no progress: %d moves pending against capacity %d", len(rest), limit)
		}
		pending = rest
	}
	return nil
}

// refineExec abstracts how a variant executes the data-side of a
// refinement epoch.
type refineExec struct {
	// parFor runs the per-block copies of splitting and consolidation, one
	// iteration per block: a region of the loop engine, or tasks labelled
	// split or consolidate on the graph engine.
	parFor func(label string, n int, body func(i, w int))
	// mover transfers whole blocks for sibling gathering and load balance.
	mover blockMover
}

// refineEpoch runs one complete refinement phase: mark, plan, split,
// gather siblings, consolidate, load balance, rebuild communication state.
// It returns whether the mesh changed.
func (s *state) refineEpoch(exec refineExec) (bool, error) {
	local := s.computeMarks()
	global, err := s.gatherMarks(local)
	if err != nil {
		return false, err
	}
	plan, err := s.msh.PlanRefinement(global)
	if err != nil {
		return false, err
	}
	newOwner := s.planOwnersAfter(plan)
	changed := len(plan.Refines) > 0 || len(plan.Coarsens) > 0

	// Split owned blocks: parent data becomes eight children data.
	var ownedRefines []mesh.Coord
	for _, bc := range plan.Refines {
		if s.msh.Owner(bc) == s.rank {
			ownedRefines = append(ownedRefines, bc)
		}
	}
	if err := s.splitOwned(exec, ownedRefines); err != nil {
		return false, err
	}

	// Gather coarsening siblings onto the consolidation owner.
	if err := s.exchangeBlocks(plan.CoarsenMoves(s.msh), exec.mover); err != nil {
		return false, err
	}

	// Consolidate parents whose octant-0 child this rank owns.
	var ownedParents []mesh.Coord
	for _, p := range plan.Coarsens {
		if s.msh.Owner(p.Child(0)) == s.rank {
			ownedParents = append(ownedParents, p)
		}
	}
	if err := s.consolidateOwned(exec, ownedParents); err != nil {
		return false, err
	}

	s.msh.Apply(plan)

	// Load balance the new mesh and move blocks accordingly.
	if !s.cfg.DisableLoadBalance {
		moves := balance.Moves(s.msh, newOwner)
		if len(moves) > 0 {
			changed = true
		}
		if err := s.exchangeBlocks(moves, exec.mover); err != nil {
			return false, err
		}
	}

	if err := s.rebuildComm(); err != nil {
		return false, err
	}
	if s.cfg.ValidateMesh {
		if err := s.msh.CheckInvariants(); err != nil {
			return false, fmt.Errorf("app: post-refinement mesh check: %w", err)
		}
	}
	// Coarsening changes sums legitimately; restart drift validation.
	s.oracle.Reset()
	if changed {
		s.refineCount++
	}
	s.meshHistory = append(s.meshHistory, MeshStat{
		Blocks:   s.msh.Len(),
		PerLevel: s.msh.LevelHistogram(),
	})
	return changed, nil
}

// planOwnersAfter computes the configured partition of the post-plan mesh
// without mutating the current one.
func (s *state) planOwnersAfter(plan *mesh.Plan) map[mesh.Coord]int {
	after := s.msh.Clone()
	after.Apply(plan)
	return partition(s.cfg, after, s.comm.Size())
}
