package app

import (
	"testing"

	"miniamr/internal/amr/mesh"
	"miniamr/internal/cluster"
	"miniamr/internal/mpi"
	"miniamr/internal/simnet"
)

// exchangeState builds a minimal two-rank state over a 2x2x2 root mesh
// (RCB gives each rank four blocks).
func exchangeState(t *testing.T, c *mpi.Comm, maxBlocks int) *state {
	t.Helper()
	cfg := testConfig()
	cfg.RootBlocks = [3]int{2, 2, 2}
	cfg.MaxBlocksPerRank = maxBlocks
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	s, err := newState(&cfg, c, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestExchangeMultiRound forces the block exchange through multiple rounds:
// with four blocks per rank, capacity five, and two blocks crossing in each
// direction, only one block per direction fits per round.
func TestExchangeMultiRound(t *testing.T) {
	w := mpi.NewWorld(cluster.MustNew(1, 2, 1), simnet.None())
	err := w.Run(func(c *mpi.Comm) {
		s := exchangeState(t, c, 5)
		mine := s.owned()
		theirs := s.msh.Owned(1 - s.rank)
		if len(mine) != 4 || len(theirs) != 4 {
			t.Errorf("rank %d: unexpected partition %d/%d", s.rank, len(mine), len(theirs))
			panic("bad partition")
		}
		// Swap two blocks in each direction. Build the same deterministic
		// move list on both ranks.
		r0 := s.msh.Owned(0)
		r1 := s.msh.Owned(1)
		moves := []mesh.Move{
			{Block: r0[0], From: 0, To: 1},
			{Block: r0[1], From: 0, To: 1},
			{Block: r1[0], From: 1, To: 0},
			{Block: r1[1], From: 1, To: 0},
		}
		// Tag the original data so we can verify payload identity.
		sentinel := map[mesh.Coord]float64{}
		for _, mv := range moves {
			if mv.From == s.rank {
				v := float64(1000 + mv.Block.X*100 + mv.Block.Y*10 + mv.Block.Z)
				s.data[mv.Block].Set(0, 1, 1, 1, v)
			}
			sentinel[mv.Block] = float64(1000 + mv.Block.X*100 + mv.Block.Y*10 + mv.Block.Z)
		}
		if err := s.exchangeBlocks(moves, &blockingMover{s: s}); err != nil {
			t.Errorf("rank %d: %v", s.rank, err)
			panic(err)
		}
		// Ownership updated consistently and data landed with content.
		for _, mv := range moves {
			if s.msh.Owner(mv.Block) != mv.To {
				t.Errorf("rank %d: %v owner = %d, want %d", s.rank, mv.Block, s.msh.Owner(mv.Block), mv.To)
			}
			if mv.To == s.rank {
				d, ok := s.data[mv.Block]
				if !ok {
					t.Errorf("rank %d: moved block %v missing", s.rank, mv.Block)
					continue
				}
				if got := d.At(0, 1, 1, 1); got != sentinel[mv.Block] {
					t.Errorf("rank %d: block %v payload %v, want %v", s.rank, mv.Block, got, sentinel[mv.Block])
				}
			}
			if mv.From == s.rank {
				if _, ok := s.data[mv.Block]; ok {
					t.Errorf("rank %d: sent block %v still present", s.rank, mv.Block)
				}
			}
		}
	})
	if err != nil && !t.Failed() {
		t.Fatal(err)
	}
}

// TestExchangeImpossibleCapacityFails verifies the stuck-exchange guard:
// a one-way flood into a full rank must error out rather than loop.
func TestExchangeImpossibleCapacityFails(t *testing.T) {
	w := mpi.NewWorld(cluster.MustNew(1, 2, 1), simnet.None())
	err := w.Run(func(c *mpi.Comm) {
		s := exchangeState(t, c, 4) // receiver already at capacity
		r0 := s.msh.Owned(0)
		moves := []mesh.Move{{Block: r0[0], From: 0, To: 1}}
		if err := s.exchangeBlocks(moves, &blockingMover{s: s}); err == nil {
			t.Error("expected capacity failure, got success")
		}
	})
	if err != nil && !t.Failed() {
		t.Fatal(err)
	}
}

// TestExchangeEmptyMovesIsNoop covers the trivial path.
func TestExchangeEmptyMovesIsNoop(t *testing.T) {
	w := mpi.NewWorld(cluster.MustNew(1, 2, 1), simnet.None())
	err := w.Run(func(c *mpi.Comm) {
		s := exchangeState(t, c, 0)
		if err := s.exchangeBlocks(nil, &blockingMover{s: s}); err != nil {
			t.Errorf("rank %d: %v", s.rank, err)
		}
	})
	if err != nil && !t.Failed() {
		t.Fatal(err)
	}
}
