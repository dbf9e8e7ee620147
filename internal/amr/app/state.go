package app

import (
	"fmt"
	"slices"
	"time"

	"miniamr/internal/amr/balance"
	"miniamr/internal/amr/comm"
	"miniamr/internal/amr/grid"
	"miniamr/internal/amr/mesh"
	"miniamr/internal/amr/object"
	"miniamr/internal/driver"
	"miniamr/internal/membuf"
	"miniamr/internal/mpi"
	"miniamr/internal/task"
	"miniamr/internal/trace"
)

// state is the per-rank simulation state shared by all driver variants.
type state struct {
	cfg   *Config
	comm  *mpi.Comm
	rank  int
	rec   *trace.Recorder
	arena *membuf.Arena // the world's buffer arena; all scratch comes from it

	msh  *mesh.Mesh
	data map[mesh.Coord]*grid.Data
	objs []object.Object // replicated; advanced identically everywhere

	chunkCap int // message chunking mode of the running variant

	// epoch counts rebuildComm calls: what a driver derives from the mesh or
	// the schedules below is valid while it stands. ownedList is the rank's
	// blocks in deterministic order, derived the same way.
	epoch     int
	ownedList []mesh.Coord

	scheds [3]*comm.Schedule
	// sendPlans and recvPlans are the chunked ghost messages of each
	// direction, derived once per mesh epoch: the per-stage hot paths walk
	// them without re-planning (or allocating). recvBufs[dir].Buf(i) is
	// the pooled receive slab backing recvPlans[dir][i], stable across the
	// epoch. Send-side slabs are not retained: each message is packed into
	// a fresh arena lease whose ownership transfers to the MPI layer (the
	// receiver returns it). The plan tables keep miniAMR's historical
	// field names (the golden task graphs render them); new applications
	// use the equivalent driver.Plans cache.
	sendPlans [3][]commPlan
	recvPlans [3][]commPlan
	recvBufs  [3]driver.Slabs
	planOwn   []int // backs every plan's own list; storage kept across epochs

	oracle      driver.Oracle // cross-variant checksum history + drift validation
	flops       int64
	refineTime  time.Duration
	refineCount int
	meshHistory []MeshStat

	// Restart bookkeeping: counters carried over from a restored
	// checkpoint; restored suppresses the initial refinement.
	startStep, startStage int
	restored              bool
}

// commPlan is one precomputed ghost message: its peer, message index
// within the peer pair, matching tag, transfer list, and payload length
// per ghost variable (message length for a group of gv variables is
// cells*gv, since transfer lengths are linear in the group width).
type commPlan struct {
	peer  int
	mi    int
	tag   int
	cells int
	msg   []comm.Transfer
	// own holds, per transfer, the index in owned() of the block this rank
	// contributes: the source of an outgoing transfer, the receiver of an
	// incoming one.
	own []int
	// sec is the data-flow driver's region of the message's first buffer
	// section; the other transfers' follow it. The driver's plan reserves
	// them.
	sec task.Region
}

// MeshStat is a snapshot of the mesh shape after a refinement epoch; the
// shared shape lives in the driver skeleton.
type MeshStat = driver.MeshStat

// partition applies the configured load-balancing policy to a mesh.
func partition(cfg *Config, m *mesh.Mesh, ranks int) map[mesh.Coord]int {
	if cfg.Partitioner == "sfc" {
		return balance.Morton(m.Config(), m.Leaves(), ranks)
	}
	return balance.RCB(m.Config(), m.Leaves(), ranks)
}

// initValue is the deterministic initial condition: smooth in space so
// restriction/prolongation effects stay small, distinct per variable.
func initValue(v int, x, y, z float64) float64 {
	return float64(v%7+1)*0.1 + 0.5*x*(1-x) + 0.3*y + 0.2*z*z + 0.1*x*y
}

// newState builds the initial mesh, partitions it with RCB and fills the
// rank's blocks.
func newState(cfg *Config, c *mpi.Comm, rec *trace.Recorder, chunkCap int) (*state, error) {
	mcfg := mesh.Config{Root: cfg.RootBlocks, MaxLevel: cfg.MaxLevel}
	m, err := mesh.NewUniform(mcfg, func(mesh.Coord) int { return 0 })
	if err != nil {
		return nil, err
	}
	for bc, r := range partition(cfg, m, c.Size()) {
		m.SetOwner(bc, r)
	}
	s := &state{
		cfg:      cfg,
		comm:     c,
		rank:     c.Rank(),
		rec:      rec,
		arena:    c.World().Arena(),
		msh:      m,
		data:     make(map[mesh.Coord]*grid.Data),
		objs:     append([]object.Object(nil), cfg.Objects...),
		chunkCap: chunkCap,
		oracle:   driver.Oracle{Tolerance: cfg.ChecksumTolerance},
	}
	for dir := range s.recvBufs {
		s.recvBufs[dir].Init(s.arena)
	}
	if cfg.RestoreFile != "" {
		if err := s.restoreState(); err != nil {
			return nil, err
		}
		return s, nil
	}
	for _, bc := range m.Owned(s.rank) {
		s.data[bc] = s.newBlockData(bc, true)
	}
	if err := s.rebuildComm(); err != nil {
		return nil, err
	}
	return s, nil
}

// newBlockData places a block's storage over pooled arena buffers,
// optionally filling the initial condition. The cell array is cleared (a
// pooled buffer arrives stale, and blocks must start zeroed exactly like
// the seed's fresh allocations); the stencil scratch is written before it
// is read, so its stale contents are harmless. releaseBlock returns the
// storage.
func (s *state) newBlockData(bc mesh.Coord, fill bool) *grid.Data {
	n := grid.StorageLen(s.cfg.BlockSize, s.cfg.Vars)
	cells := s.arena.GetFloat64(n)
	clear(cells)
	d := grid.MustNewDataFrom(s.cfg.BlockSize, s.cfg.Vars, cells, s.arena.GetFloat64(n))
	if fill {
		lo, _ := s.msh.Config().Bounds(bc)
		d.Fill(lo, s.msh.Config().CellWidth(bc, s.cfg.BlockSize), initValue)
	}
	return d
}

// releaseBlock returns a dead block's storage to the arena. The block
// must no longer be reachable.
func (s *state) releaseBlock(d *grid.Data) {
	cells, scratch := d.Storage()
	s.arena.PutFloat64(cells)
	s.arena.PutFloat64(scratch)
}

// rebuildComm recomputes exchange schedules, message plans and
// communication buffers, required after every mesh mutation.
func (s *state) rebuildComm() error {
	s.releaseRecvBufs()
	s.epoch++
	s.ownedList = s.msh.Owned(s.rank)
	transfers := 0
	for dir := grid.DirX; dir <= grid.DirZ; dir++ {
		sched, err := comm.BuildSchedule(s.msh, s.rank, dir, s.cfg.BlockSize)
		if err != nil {
			return err
		}
		s.scheds[dir] = sched
		for _, pe := range sched.Peers {
			transfers += len(pe.Send) + len(pe.Recv)
		}
	}
	// Sized up front: the plans keep subslices of it while it is appended to.
	s.planOwn = slices.Grow(s.planOwn[:0], transfers)
	for dir, sched := range s.scheds {
		s.sendPlans[dir] = s.sendPlans[dir][:0]
		s.recvPlans[dir] = s.recvPlans[dir][:0]
		for _, pe := range sched.Peers {
			for mi, msg := range comm.Chunk(pe.Send, s.chunkCap) {
				s.sendPlans[dir] = append(s.sendPlans[dir], s.newPlan(sched.Dir, pe.Peer, mi, msg, true))
			}
			for mi, msg := range comm.Chunk(pe.Recv, s.chunkCap) {
				pl := s.newPlan(sched.Dir, pe.Peer, mi, msg, false)
				s.recvPlans[dir] = append(s.recvPlans[dir], pl)
				s.recvBufs[dir].Grab(pl.cells * s.cfg.CommVars)
			}
		}
	}
	return nil
}

// newPlan plans one ghost message of the epoch being built.
func (s *state) newPlan(dir grid.Dir, peer, mi int, msg []comm.Transfer, send bool) commPlan {
	from := len(s.planOwn)
	for _, tr := range msg {
		bc := tr.Recv
		if send {
			bc = tr.Src
		}
		s.planOwn = append(s.planOwn, ownedIndex(s.ownedList, bc))
	}
	return commPlan{
		peer: peer, mi: mi, tag: comm.Tag(dir, mi),
		cells: comm.MessageLen(msg, 1), msg: msg, own: s.planOwn[from:len(s.planOwn):len(s.planOwn)],
	}
}

// releaseRecvBufs returns the receive slabs to the arena. Callers must
// have drained all in-flight receives first; rebuildComm and close run
// only at quiesced points.
func (s *state) releaseRecvBufs() {
	for dir := range s.recvBufs {
		s.recvBufs[dir].ReleaseAll()
	}
}

// close returns every pooled buffer the state still holds — block storage
// and receive slabs — to the arena. It is called after a successful run;
// a failed run abandons its buffers (the job is over anyway, and in-flight
// operations may still reference them).
func (s *state) close() {
	for _, d := range s.data {
		s.releaseBlock(d)
	}
	s.data = nil
	s.releaseRecvBufs()
}

// ownedIndex returns the position of bc in owned, a rank's sorted block
// list. The schedules only name blocks of the rank on its side of a transfer.
func ownedIndex(owned []mesh.Coord, bc mesh.Coord) int {
	i, ok := slices.BinarySearchFunc(owned, bc, mesh.Coord.Compare)
	if !ok {
		panic(fmt.Sprintf("app: the schedules move a face of %v, which the rank does not own", bc))
	}
	return i
}

// owned returns the rank's blocks in deterministic order: the list
// rebuildComm cached, shared by every caller and not to be modified.
func (s *state) owned() []mesh.Coord { return s.ownedList }

// runStencil applies the configured stencil kernel to a block's variable
// group. The 27-point stencil first synthesises edge/corner ghosts from
// the face ghosts filled by the communication phase.
func (s *state) runStencil(d *grid.Data, g0, g1 int) {
	if s.cfg.Stencil == 27 {
		d.FillGhostEdges(g0, g1)
		d.Stencil27(g0, g1)
		return
	}
	d.Stencil7(g0, g1)
}

// stencilFlops returns the operation count of one stencil application.
func (s *state) stencilFlops(d *grid.Data, g0, g1 int) int64 {
	if s.cfg.Stencil == 27 {
		return d.Stencil27Flops(g0, g1)
	}
	return d.Stencil7Flops(g0, g1)
}

// computeMarks derives this rank's refinement marks from the objects:
// refine where an object marks the block, coarsen candidates elsewhere.
func (s *state) computeMarks() map[mesh.Coord]int8 {
	marks := make(map[mesh.Coord]int8)
	if s.cfg.UniformRefine {
		for _, bc := range s.owned() {
			marks[bc] = 1
		}
		return marks
	}
	for _, bc := range s.owned() {
		lo, hi := s.msh.Config().Bounds(bc)
		marked := false
		for i := range s.objs {
			if s.objs[i].MarksBlock(lo, hi) {
				marked = true
				break
			}
		}
		switch {
		case marked:
			marks[bc] = 1
		case bc.Level > 0:
			marks[bc] = -1
		default:
			marks[bc] = 0
		}
	}
	return marks
}

// gatherMarks exchanges local marks so that every rank holds the global
// mark map (an allgather of 5-int records per block).
func (s *state) gatherMarks(local map[mesh.Coord]int8) (map[mesh.Coord]int8, error) {
	enc := make([]int, 0, 5*len(local))
	for _, bc := range s.owned() {
		enc = append(enc, bc.Level, bc.X, bc.Y, bc.Z, int(local[bc]))
	}
	all, _, err := s.comm.AllgathervInt(enc)
	if err != nil {
		return nil, err
	}
	if len(all)%5 != 0 {
		return nil, fmt.Errorf("app: corrupt marks payload of %d ints", len(all))
	}
	global := make(map[mesh.Coord]int8, len(all)/5)
	for i := 0; i < len(all); i += 5 {
		bc := mesh.Coord{Level: all[i], X: all[i+1], Y: all[i+2], Z: all[i+3]}
		global[bc] = int8(all[i+4])
	}
	return global, nil
}

// advanceObjects moves every replicated object one refinement epoch.
func (s *state) advanceObjects() {
	for i := range s.objs {
		s.objs[i].Advance()
	}
}

// combineBlockSums folds per-block per-variable sums, listed in the order of
// owned(), into global-order local sums: blocks are combined in coordinate
// order so the result is bit-deterministic regardless of which worker
// produced each block's sums. The result is a pooled buffer;
// reduceAndValidate takes ownership of it.
//
//amr:det
func (s *state) combineBlockSums(perBlock [][]float64) []float64 {
	return driver.CombineSums(s.arena, s.cfg.Vars, perBlock)
}

// reduceAndValidate completes a checksum: global reduction across ranks,
// then the oracle's drift validation against the previous validated sums.
// Refinement resets the oracle baseline because coarsening legitimately
// changes sums. It takes ownership of local (a pooled buffer from
// combineBlockSums) and returns it to the arena.
func (s *state) reduceAndValidate(local []float64) error {
	global, err := s.comm.AllreduceFloat64(local, mpi.Sum)
	s.arena.PutFloat64(local)
	if err != nil {
		return err
	}
	return s.oracle.Accept(global)
}

// Result summarises one rank's run; the shared shape lives in the driver
// skeleton so every application reports through the same type.
type Result = driver.Result
