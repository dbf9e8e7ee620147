package comm

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"miniamr/internal/amr/balance"
	"miniamr/internal/amr/grid"
	"miniamr/internal/amr/mesh"
)

const testVars = 3

var testSize = grid.Size{X: 4, Y: 4, Z: 4}

// buildTestMesh creates a refined multi-rank mesh: a 2x2x2 root grid with
// one corner refined, partitioned over the given rank count by RCB.
func buildTestMesh(t *testing.T, ranks int) *mesh.Mesh {
	t.Helper()
	cfg := mesh.Config{Root: [3]int{2, 2, 2}, MaxLevel: 2}
	m, err := mesh.NewUniform(cfg, func(mesh.Coord) int { return 0 })
	if err != nil {
		t.Fatal(err)
	}
	plan, err := m.PlanRefinement(map[mesh.Coord]int8{{Level: 0, X: 0, Y: 0, Z: 0}: 1})
	if err != nil {
		t.Fatal(err)
	}
	m.Apply(plan)
	owner := balance.RCB(cfg, m.Leaves(), ranks)
	for c, r := range owner {
		m.SetOwner(c, r)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestScheduleSendRecvSymmetry(t *testing.T) {
	const ranks = 3
	m := buildTestMesh(t, ranks)
	for dir := grid.DirX; dir <= grid.DirZ; dir++ {
		scheds := make([]*Schedule, ranks)
		for r := 0; r < ranks; r++ {
			s, err := BuildSchedule(m, r, dir, testSize)
			if err != nil {
				t.Fatal(err)
			}
			scheds[r] = s
		}
		for a := 0; a < ranks; a++ {
			for _, pe := range scheds[a].Peers {
				b := pe.Peer
				// Find b's view of a.
				var back *PeerExchange
				for i := range scheds[b].Peers {
					if scheds[b].Peers[i].Peer == a {
						back = &scheds[b].Peers[i]
					}
				}
				if back == nil {
					if len(pe.Send) > 0 || len(pe.Recv) > 0 {
						t.Fatalf("dir %v: rank %d exchanges with %d but not vice versa", dir, a, b)
					}
					continue
				}
				if len(pe.Send) != len(back.Recv) || len(pe.Recv) != len(back.Send) {
					t.Fatalf("dir %v: asymmetric lists between %d and %d", dir, a, b)
				}
				for i := range pe.Send {
					if pe.Send[i] != back.Recv[i] {
						t.Fatalf("dir %v: transfer %d differs: %+v vs %+v", dir, i, pe.Send[i], back.Recv[i])
					}
				}
				for i := range pe.Recv {
					if pe.Recv[i] != back.Send[i] {
						t.Fatalf("dir %v: transfer %d differs: %+v vs %+v", dir, i, pe.Recv[i], back.Send[i])
					}
				}
			}
		}
	}
}

func TestScheduleCoversEveryFaceOnce(t *testing.T) {
	// Union over ranks of (local + recv + boundary) must fill each face of
	// each block exactly once per direction: same-level and coarser fills
	// count as one full face; finer fills arrive as four quarters.
	const ranks = 3
	m := buildTestMesh(t, ranks)
	for dir := grid.DirX; dir <= grid.DirZ; dir++ {
		quarters := map[mesh.Coord]map[grid.Side]int{}
		add := func(c mesh.Coord, side grid.Side, q int) {
			if quarters[c] == nil {
				quarters[c] = map[grid.Side]int{}
			}
			quarters[c][side] += q
		}
		for r := 0; r < ranks; r++ {
			s, err := BuildSchedule(m, r, dir, testSize)
			if err != nil {
				t.Fatal(err)
			}
			for _, tr := range s.Local {
				q := 4
				if tr.Rel == mesh.Finer {
					q = 1
				}
				add(tr.Recv, tr.RecvSide, q)
			}
			for _, pe := range s.Peers {
				for _, tr := range pe.Recv {
					q := 4
					if tr.Rel == mesh.Finer {
						q = 1
					}
					add(tr.Recv, tr.RecvSide, q)
				}
			}
			for _, bf := range s.Boundary {
				add(bf.Block, bf.Side, 4)
			}
		}
		for _, c := range m.Leaves() {
			for _, side := range []grid.Side{grid.Low, grid.High} {
				if got := quarters[c][side]; got != 4 {
					t.Errorf("dir %v: block %v side %v filled %d/4 quarters", dir, c, side, got)
				}
			}
		}
	}
}

// TestScheduleGroupsLocalAndBoundaryByBlock pins the order Schedule
// documents for Local and Boundary: ascending receiving block, as in
// mesh.Owned.
func TestScheduleGroupsLocalAndBoundaryByBlock(t *testing.T) {
	const ranks = 3
	m := buildTestMesh(t, ranks)
	for dir := grid.DirX; dir <= grid.DirZ; dir++ {
		for r := 0; r < ranks; r++ {
			s, err := BuildSchedule(m, r, dir, testSize)
			if err != nil {
				t.Fatal(err)
			}
			var local, bound []mesh.Coord
			for _, tr := range s.Local {
				local = append(local, tr.Recv)
			}
			for _, bf := range s.Boundary {
				bound = append(bound, bf.Block)
			}
			for name, blocks := range map[string][]mesh.Coord{"Local": local, "Boundary": bound} {
				if !slices.IsSortedFunc(blocks, mesh.Coord.Compare) {
					t.Errorf("dir %v rank %d: %s is not in owned-block order: %v", dir, r, name, blocks)
				}
				for _, b := range blocks {
					if !slices.Contains(m.Owned(r), b) {
						t.Errorf("dir %v rank %d: %s names %v, which the rank does not own", dir, r, name, b)
					}
				}
			}
			if len(local)+len(bound) == 0 {
				t.Errorf("dir %v rank %d: nothing to check", dir, r)
			}
		}
	}
}

func TestChunkModes(t *testing.T) {
	ts := make([]Transfer, 10)
	for i := range ts {
		ts[i].lenPerVar = 16
	}
	if got := Chunk(nil, 1); got != nil {
		t.Error("chunking empty list should be nil")
	}
	one := Chunk(ts, 1)
	if len(one) != 1 || len(one[0]) != 10 {
		t.Errorf("single message: %d groups", len(one))
	}
	all := Chunk(ts, 0)
	if len(all) != 10 {
		t.Errorf("per-face: %d groups, want 10", len(all))
	}
	four := Chunk(ts, 4)
	if len(four) != 4 {
		t.Errorf("capped: %d groups, want 4", len(four))
	}
	total := 0
	for _, g := range four {
		total += len(g)
	}
	if total != 10 {
		t.Errorf("chunking lost transfers: %d", total)
	}
	big := Chunk(ts, 99)
	if len(big) != 10 {
		t.Errorf("cap beyond list length: %d groups", len(big))
	}
}

func TestMessageLenAndTransferLen(t *testing.T) {
	tr := Transfer{lenPerVar: 16}
	if tr.Len(3) != 48 {
		t.Error("Transfer.Len")
	}
	if MessageLen([]Transfer{{lenPerVar: 16}, {lenPerVar: 4}}, 2) != 40 {
		t.Error("MessageLen")
	}
}

func TestTagDisjointAcrossDirections(t *testing.T) {
	seen := map[int]bool{}
	for dir := grid.DirX; dir <= grid.DirZ; dir++ {
		for i := 0; i < 100; i++ {
			tag := Tag(dir, i)
			if seen[tag] {
				t.Fatalf("tag collision at dir %v idx %d", dir, i)
			}
			seen[tag] = true
			if tag < 0 || tag >= 1<<24 {
				t.Fatalf("tag %d outside user tag space", tag)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("out-of-range message index should panic")
		}
	}()
	Tag(grid.DirX, 1<<20)
}

// fillGhostsVia runs one full direction exchange for every rank using the
// schedules, moving remote faces through explicit buffers like the real
// drivers do, and applying boundary conditions.
func fillGhostsVia(t *testing.T, m *mesh.Mesh, ranks int, data map[mesh.Coord]*grid.Data, dir grid.Dir, chunkCap int) {
	t.Helper()
	scratch := make([]float64, testVars*testSize.X*testSize.Y)
	type key struct{ from, to, msg int }
	wire := map[key][]float64{}
	// Senders pack.
	for r := 0; r < ranks; r++ {
		s, err := BuildSchedule(m, r, dir, testSize)
		if err != nil {
			t.Fatal(err)
		}
		for _, pe := range s.Peers {
			for mi, msg := range Chunk(pe.Send, chunkCap) {
				buf := make([]float64, MessageLen(msg, testVars))
				off := 0
				for _, tr := range msg {
					off += Pack(tr, data[tr.Src], 0, testVars, buf[off:])
				}
				wire[key{r, pe.Peer, mi}] = buf
			}
		}
	}
	// Receivers unpack; locals and boundaries execute.
	for r := 0; r < ranks; r++ {
		s, err := BuildSchedule(m, r, dir, testSize)
		if err != nil {
			t.Fatal(err)
		}
		for _, tr := range s.Local {
			ExecuteLocal(tr, data[tr.Src], data[tr.Recv], 0, testVars, scratch)
		}
		for _, bf := range s.Boundary {
			data[bf.Block].ApplyDomainBoundary(dir, bf.Side, 0, testVars)
		}
		for _, pe := range s.Peers {
			for mi, msg := range Chunk(pe.Recv, chunkCap) {
				buf, ok := wire[key{pe.Peer, r, mi}]
				if !ok {
					t.Fatalf("no message %d from %d to %d", mi, pe.Peer, r)
				}
				if len(buf) != MessageLen(msg, testVars) {
					t.Fatalf("message %d from %d to %d: %d values, want %d",
						mi, pe.Peer, r, len(buf), MessageLen(msg, testVars))
				}
				off := 0
				for _, tr := range msg {
					off += Unpack(tr, data[tr.Recv], 0, testVars, buf[off:])
				}
			}
		}
	}
}

// TestDistributedExchangeMatchesSingleRank is the package's core oracle:
// ghost values after a distributed exchange (any rank count, any message
// chunking) must be bit-identical to the all-local single-rank exchange.
func TestDistributedExchangeMatchesSingleRank(t *testing.T) {
	newData := func(m *mesh.Mesh, seed int64) map[mesh.Coord]*grid.Data {
		rng := rand.New(rand.NewSource(seed))
		out := map[mesh.Coord]*grid.Data{}
		for _, c := range m.Leaves() {
			d := grid.MustNewData(testSize, testVars)
			lo, _ := m.Config().Bounds(c)
			w := m.Config().CellWidth(c, testSize)
			d.Fill(lo, w, func(v int, x, y, z float64) float64 {
				return float64(v+1)*x + 2*y - z + rng.Float64()*0 // deterministic smooth field
			})
			out[c] = d
		}
		return out
	}
	for _, chunkCap := range []int{1, 0, 3} {
		for _, ranks := range []int{2, 3, 5} {
			m := buildTestMesh(t, ranks)
			distData := newData(m, 42)
			refMesh := m.Clone()
			for _, c := range refMesh.Leaves() {
				refMesh.SetOwner(c, 0)
			}
			refData := newData(refMesh, 42)
			for dir := grid.DirX; dir <= grid.DirZ; dir++ {
				fillGhostsVia(t, m, ranks, distData, dir, chunkCap)
				fillGhostsVia(t, refMesh, 1, refData, dir, 1)
			}
			// Compare everything including ghosts via checksums over a
			// stencil application (stencil consumes ghosts).
			for _, c := range m.Leaves() {
				distData[c].Stencil7(0, testVars)
				refData[c].Stencil7(0, testVars)
				if !distData[c].EqualInterior(refData[c]) {
					t.Fatalf("ranks=%d chunk=%d: block %v diverged from single-rank reference", ranks, chunkCap, c)
				}
			}
		}
	}
}

// Property: schedules never assign a transfer to the wrong owner and local
// transfers stay within the rank.
func TestPropertyScheduleOwnership(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := mesh.Config{Root: [3]int{2, 2, 1}, MaxLevel: 2}
		m, err := mesh.NewUniform(cfg, func(mesh.Coord) int { return 0 })
		if err != nil {
			return false
		}
		marks := map[mesh.Coord]int8{}
		for _, c := range m.Leaves() {
			if rng.Intn(2) == 0 {
				marks[c] = 1
			}
		}
		plan, err := m.PlanRefinement(marks)
		if err != nil {
			return false
		}
		m.Apply(plan)
		ranks := rng.Intn(4) + 1
		for c, r := range balance.RCB(cfg, m.Leaves(), ranks) {
			m.SetOwner(c, r)
		}
		for r := 0; r < ranks; r++ {
			for dir := grid.DirX; dir <= grid.DirZ; dir++ {
				s, err := BuildSchedule(m, r, dir, testSize)
				if err != nil {
					return false
				}
				for _, tr := range s.Local {
					if m.Owner(tr.Src) != r || m.Owner(tr.Recv) != r {
						return false
					}
				}
				for _, pe := range s.Peers {
					if pe.Peer == r {
						return false
					}
					for _, tr := range pe.Recv {
						if m.Owner(tr.Recv) != r || m.Owner(tr.Src) != pe.Peer {
							return false
						}
					}
					for _, tr := range pe.Send {
						if m.Owner(tr.Src) != r || m.Owner(tr.Recv) != pe.Peer {
							return false
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: chunking preserves order and content exactly for any list
// length and cap.
func TestPropertyChunkPartitions(t *testing.T) {
	f := func(nRaw, capRaw uint8) bool {
		n := int(nRaw)%50 + 1
		maxMsgs := int(capRaw) % 12 // includes 0 = per-face
		ts := make([]Transfer, n)
		for i := range ts {
			ts[i].Qu = i // marker to verify order
			ts[i].lenPerVar = 4
		}
		chunks := Chunk(ts, maxMsgs)
		if maxMsgs >= 1 && len(chunks) > maxMsgs {
			return false
		}
		idx := 0
		for _, ch := range chunks {
			if len(ch) == 0 {
				return false // no empty messages
			}
			for _, tr := range ch {
				if tr.Qu != idx {
					return false
				}
				idx++
			}
		}
		return idx == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
