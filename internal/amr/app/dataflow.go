package app

import (
	"fmt"
	"slices"

	"miniamr/internal/amr/comm"
	"miniamr/internal/amr/grid"
	"miniamr/internal/amr/mesh"
	"miniamr/internal/driver"
	"miniamr/internal/mpi"
	"miniamr/internal/task"
	"miniamr/internal/trace"
)

// RunDataFlow executes the simulation with the paper's hybrid data-flow
// strategy: every phase is taskified, tasks connect through data
// dependencies, and MPI operations are issued from tasks through the
// task-aware MPI layer, overlapping phases without global barriers.
func RunDataFlow(cfg Config, c *mpi.Comm, rec *trace.Recorder) (Result, error) {
	d, err := newDataFlowDriver(&cfg, c, rec)
	if err != nil {
		return Result{}, err
	}
	res, err := runMain(d.s, driver.Observe(d, d.obs))
	if err != nil {
		return Result{}, err
	}
	res.TaskCount = d.g.SpawnCount()
	d.g.Close()
	d.s.close()
	return res, nil
}

// newDataFlowDriver builds the rank's state and the graph engine that runs
// its tasks.
func newDataFlowDriver(cfg *Config, c *mpi.Comm, rec *trace.Recorder) (*dataFlowDriver, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s, err := newState(cfg, c, rec, cfg.chunkCap())
	if err != nil {
		return nil, err
	}
	var obs task.Observer
	if cfg.TaskObserver != nil {
		obs = cfg.TaskObserver(c.Rank())
	}
	d := &dataFlowDriver{s: s, obs: obs, groups: len(cfg.Groups())}
	d.packJobs, d.unpackJobs, d.fillJobs = driver.NewJobs(d.pack), driver.NewJobs(d.unpack), driver.NewJobs(d.fillBlock)
	d.stencilJobs, d.sumJobs = driver.NewJobs(d.stencil), driver.NewJobs(d.sumBlock)
	d.g, err = driver.NewGraphEngine(driver.GraphOptions{
		Comm:                      c,
		Recorder:                  rec,
		Workers:                   cfg.Workers,
		DisableImmediateSuccessor: cfg.DisableImmediateSuccessor,
		Sanitizer:                 cfg.Sanitizer,
		Observer:                  obs,
		ScratchLen:                scratchLen(cfg),
		Describe:                  d.describe,
	})
	if err != nil {
		return nil, err
	}
	return d, nil
}

type dataFlowDriver struct {
	s *state
	// g owns the task runtime, the task-aware MPI context, the per-worker
	// scratch buffers and the sanitizer/trace plumbing.
	g *driver.GraphEngine
	// obs is the rank's task observer from the configuration, or nil.
	obs task.Observer

	// unpacks is communicate's list of pending unpack tasks; regs is the
	// multidependency list of the task being spawned, which In copies. Both
	// are kept for their storage.
	unpacks []args
	regs    []task.Region

	// The recycled job records of the steady-state task kinds.
	packJobs, unpackJobs, fillJobs, stencilJobs, sumJobs *driver.Jobs[args]

	// What the driver derives from the mesh, valid for the state epoch
	// planned (see plan) and never written within it, so task bodies may read
	// it while later stages are being spawned: the fill plan, the data of
	// owned block i at blocks[i], and the first handle of each table of
	// dependency regions (see interior, halo, slot; a message's sections hang
	// off its plan). Dependencies are declared at the granularity the paper
	// describes: a mesh block and its variable group (never individual
	// faces), plus communication buffer sections.
	planned          int
	groups           int
	fill             fillPlan
	blocks           []*grid.Data
	interiors, halos task.Region
	slotRegs         task.Region
	// xfers are the regions of the refinement exchange under way, nxfers of
	// them (see xfer); they live until the next plan.
	xfers  task.Region
	nxfers int

	// Delayed-checksum state: two parities of per-block sum slots, indexed
	// like blocks and reused across stages.
	parity  int
	slots   [2][][]float64
	pending [2]bool
}

// args is a task's arguments: owned block i (a fill's: entry i of the fill
// plan) in variables g0..g1; a pack's or unpack's transfer tr with its
// message section sec and that section's region; a checksum's slot and its
// parity.
type args struct {
	i, g0, g1, par int
	tr             comm.Transfer
	sec, slot      []float64
	key            task.Region
}

// interior is the interior of owned block i's variable group gi: written by
// stencil, read by pack, by the fills of the neighbouring blocks and by the
// checksum. A block is two regions, because its two parts have different
// writers: the stencil writes the interior, the ghost exchange the halo.
// Block state persists across timesteps.
//
//amr:hot allocs=0
func (d *dataFlowDriver) interior(i, gi int) task.Region {
	return d.interiors + task.Region(i*d.groups+gi)
}

// halo is the halo of the same range, all six faces: filled by the block's
// fill task and its unpack tasks, consumed (and for the 27-point kernel
// completed with edges and corners) by stencil.
//
//amr:hot allocs=0
func (d *dataFlowDriver) halo(i, gi int) task.Region {
	return d.halos + task.Region(i*d.groups+gi)
}

// section is transfer idx's section of the buffer of message pl. Sections
// are per-stage: produced, consumed once, recycled. With shared buffers the
// three directions' messages of one peer and message index share their
// sections' regions (reproducing the false dependencies that
// --separate_buffers removes).
//
//amr:hot allocs=0
func section(pl *commPlan, idx int) task.Region { return pl.sec + task.Region(idx) }

// slot is owned block i's checksum accumulator slot; parity alternates
// between consecutive checksum stages for the delayed validation (class
// matching: the delayed flush reads the other parity).
//
//amr:hot allocs=0
func (d *dataFlowDriver) slot(parity, i int) task.Region {
	return d.slotRegs + task.Region(parity*len(d.blocks)+i)
}

// xfer orders the pack->send and recv->unpack pairs of the refinement block
// exchange, by the move's data tag.
//
//amr:hot allocs=0
func (d *dataFlowDriver) xfer(tag int, recv bool) task.Region {
	r := d.xfers + task.Region(2*(tag-exchangeData))
	if recv {
		r++
	}
	return r
}

// groupIndex converts a group's first variable to its index.
func (d *dataFlowDriver) groupIndex(g0 int) int { return g0 / d.s.cfg.CommVars }

// plan brings what the driver derives from the mesh up to date: a no-op
// within a mesh epoch. It runs on the spawning goroutine at the top of a
// phase; the only rebuilds follow a refinement, which drained the graph,
// so no task reads the storage it recycles or names a region it drops.
func (d *dataFlowDriver) plan() {
	s := d.s
	if d.planned == s.epoch {
		return
	}
	d.planned = s.epoch
	owned := s.owned()
	d.fill.build(owned, &s.scheds)
	d.blocks = d.blocks[:0]
	for _, bc := range owned {
		d.blocks = append(d.blocks, s.data[bc])
	}
	d.g.ResetRegions()
	n := len(owned) * d.groups
	d.interiors = d.g.Reserve(2*n + 2*len(owned))
	d.halos, d.slotRegs = d.interiors+task.Region(n), d.interiors+task.Region(2*n)
	d.nxfers = 0 // the last exchange's regions went with the reset
	// A message's sections are one run of regions. With shared buffers the
	// three directions' messages of one peer and message index share the run
	// at that place in a table of runs long enough for any message.
	for _, plans := range [2]*[3][]commPlan{&s.recvPlans, &s.sendPlans} {
		longest, msgs := 0, 0
		for dir := range plans {
			for _, pl := range plans[dir] {
				longest, msgs = max(longest, len(pl.msg)), max(msgs, pl.mi+1)
			}
		}
		var shared task.Region
		if !s.cfg.SeparateBuffers {
			shared = d.g.Reserve(s.comm.Size() * msgs * longest)
		}
		for dir := range plans {
			for pi := range plans[dir] {
				pl := &plans[dir][pi]
				if s.cfg.SeparateBuffers {
					pl.sec = d.g.Reserve(len(pl.msg))
				} else {
					pl.sec = shared + task.Region((pl.peer*msgs+pl.mi)*longest)
				}
			}
		}
	}
}

// describe names a region in words for the sanitizer's reports.
func (d *dataFlowDriver) describe(r task.Region) string {
	s, nb := d.s, len(d.blocks)
	n := nb * d.groups
	switch i := int(r) - int(d.interiors); {
	case i >= 0 && i < 2*n:
		return fmt.Sprintf("%s %v group %d", [2]string{"interior", "halo"}[i/n], s.owned()[i%n/d.groups], i%d.groups)
	case i >= 2*n && i < 2*n+2*nb:
		return fmt.Sprintf("slot %v parity %d", s.owned()[(i-2*n)%nb], (i-2*n)/nb)
	}
	if i := int(r) - int(d.xfers); i >= 0 && i < d.nxfers {
		return fmt.Sprintf("xfer tag=%d recv=%t", exchangeData+i/2, i%2 == 1)
	}
	for way, plans := range [2]*[3][]commPlan{&s.recvPlans, &s.sendPlans} {
		for dir := range plans {
			for _, pl := range plans[dir] {
				if i := int(r) - int(pl.sec); i >= 0 && i < len(pl.msg) {
					return fmt.Sprintf("section dir=%v peer=%d msg=%d idx=%d %s",
						grid.Dir(dir), pl.peer, pl.mi, i, [2]string{"recv", "send"}[way])
				}
			}
		}
	}
	return fmt.Sprintf("region %d", r.Index())
}

// Communicate taskifies the ghost exchange (the paper's Algorithm 3): per
// direction a receive task per message binding the request, pack tasks per
// face and send tasks per message with multidependencies on the packed
// sections; then one fill task per block for everything that stays within
// the rank; then the unpack tasks fed by the receives' buffer sections.
// The pin counts two sites of inlined callees that a run with the sanitizer
// off never reaches: BindSection's and a lease's panic message.
//
//amr:hot allocs=2
func (d *dataFlowDriver) Communicate(_, g0, g1 int) error {
	s := d.s
	gv := g1 - g0
	gi := d.groupIndex(g0)
	d.plan()
	// Refinement may have rebuilt the exchange plans with recycled
	// storage; aliasing is only meaningful within one set of plans
	// (with the sanitizer off this is a nil check).
	d.g.ResetBindings()
	// Pending unpack work of all three directions, spawned after the
	// fills: an unpack waits for its message, and a block's halo tasks run
	// in spawn order.
	unpacks := d.unpacks[:0]
	for dir := grid.DirX; dir <= grid.DirZ; dir++ {
		// Receives: one task per incoming message; its completion is
		// bound to the MPI request, so unpackers run only once the
		// data arrived (the buffer must not be consumed in the task).
		for pi := range s.recvPlans[dir] {
			pl := &s.recvPlans[dir][pi]
			buf := s.recvBufs[dir].Buf(pi)[:pl.cells*gv]
			secs := d.regs[:0]
			off := 0
			for i, tr := range pl.msg {
				sec, key := buf[off:off+tr.Len(gv)], section(pl, i)
				off += tr.Len(gv)
				secs = append(secs, key)
				d.g.BindSection(key, sec)
				unpacks = append(unpacks, args{i: pl.own[i], tr: tr, sec: sec, key: key, g0: g0, g1: g1})
			}
			d.regs = secs
			d.g.Spawn("recv", d.g.RecvBody(driver.Message{
				Sec: pl.sec, Secs: len(pl.msg), Peer: pl.peer, Tag: pl.tag,
				Buf: buf, Blocking: s.cfg.BlockingTAMPI,
			}), d.g.Out(secs...)...)
		}

		// Sends: the message buffer is a fresh arena lease; pack tasks
		// per face write their section of it, one send task per message
		// depends on all the sections and transfers the lease to the
		// MPI layer (the receiving rank returns it to the arena). The
		// section regions — not the physical buffers — carry the paper's
		// buffer-reuse dependencies, so chaining behaviour is unchanged.
		// Packers read interiors only: they depend on the previous
		// stage's stencil and on nothing of this stage.
		for pi := range s.sendPlans[dir] {
			pl := &s.sendPlans[dir][pi]
			lease := s.arena.LeaseFloat64(pl.cells * gv)
			buf := lease.Float64()
			secs := d.regs[:0]
			off := 0
			for i, tr := range pl.msg {
				pj := args{i: pl.own[i], tr: tr, sec: buf[off : off+tr.Len(gv)], key: section(pl, i), g0: g0, g1: g1}
				off += tr.Len(gv)
				secs = append(secs, pj.key)
				d.g.Spawn("pack", d.packJobs.Body(pj), d.g.Merge(
					d.g.In(d.interior(pj.i, gi)),
					d.g.Out(pj.key),
				)...)
			}
			d.regs = secs
			d.g.Spawn("send", d.g.SendBody(driver.Message{
				Sec: pl.sec, Secs: len(pl.msg), Peer: pl.peer, Tag: pl.tag,
				Lease: lease, Blocking: s.cfg.BlockingTAMPI,
			}), d.g.In(secs...)...)
		}
	}

	d.fillGhosts(g0, g1)

	// Unpackers: consume the receives' buffer sections into block ghosts
	// once the bound requests complete.
	for _, uj := range unpacks {
		d.g.Spawn("unpack", d.unpackJobs.Body(uj), d.g.Merge(
			d.g.In(uj.key),
			d.g.InOut(d.halo(uj.i, gi)),
		)...)
	}
	d.unpacks = unpacks
	return d.g.X.Err()
}

// pack is a pack task: a block's face into its section of a message.
func (d *dataFlowDriver) pack(t *task.Task, a *args) {
	s := d.s
	d.g.NoteRead(t, d.interior(a.i, d.groupIndex(a.g0)))
	d.g.NoteWrite(t, a.key)
	s.rec.Span(s.rank, t.Worker(), "pack", func() {
		comm.Pack(a.tr, d.blocks[a.i], a.g0, a.g1, a.sec)
	})
}

// unpack is an unpack task: one received section into a block's halo.
func (d *dataFlowDriver) unpack(t *task.Task, a *args) {
	s := d.s
	d.g.NoteRead(t, a.key)
	d.g.NoteWrite(t, d.halo(a.i, d.groupIndex(a.g0)))
	s.rec.Span(s.rank, t.Worker(), "unpack", func() {
		comm.Unpack(a.tr, d.blocks[a.i], a.g0, a.g1, a.sec)
	})
}

// fillGhosts spawns the intra-rank exchange: one task per destination
// block of the epoch's fill plan, running the local copies of all three
// directions into the block and its domain-boundary faces. The face
// kernels read only interiors and write disjoint ghost cells, so any order
// gives the same bits. A fill reads the interiors of its sources and
// writes the destination's halo; it keeps the label of the per-face copy
// tasks it replaces, which is what traces and the benchmark fold it under.
//
//amr:hot allocs=0
func (d *dataFlowDriver) fillGhosts(g0, g1 int) {
	fp := &d.fill
	gi := d.groupIndex(g0)
	for k, fb := range fp.blocks {
		srcs := d.regs[:0]
		for _, j := range fp.srcs[d.fillFrom(k).srcs:fb.srcs] {
			srcs = append(srcs, d.interior(j, gi))
		}
		d.regs = srcs
		d.g.Spawn("local-copy", d.fillJobs.Body(args{i: k, g0: g0, g1: g1}), d.g.Merge(
			d.g.In(srcs...),
			d.g.InOut(d.halo(fb.owned, gi)),
		)...)
	}
}

// fillFrom is where entry k of the fill plan starts: the end of entry k-1.
func (d *dataFlowDriver) fillFrom(k int) (from fillBlock) {
	if k > 0 {
		from = d.fill.blocks[k-1]
	}
	return from
}

// fillBlock is a fill task: entry a.i of the fill plan.
func (d *dataFlowDriver) fillBlock(t *task.Task, a *args) {
	s, fp := d.s, &d.fill
	gi := d.groupIndex(a.g0)
	from, fb := d.fillFrom(a.i), fp.blocks[a.i]
	dst := d.blocks[fb.owned]
	copies, faces := fp.copies[from.copies:fb.copies], fp.faces[from.faces:fb.faces]
	srcIdx := fp.srcs[from.srcs:fb.srcs] // the copies' sources first
	for _, j := range srcIdx {
		d.g.NoteRead(t, d.interior(j, gi))
	}
	d.g.NoteWrite(t, d.halo(fb.owned, gi))
	s.rec.Span(s.rank, t.Worker(), "local-copy", func() {
		scratch := d.g.Scratch(t.Worker())
		for k, tr := range copies {
			comm.ExecuteLocal(tr, d.blocks[srcIdx[k]], dst, a.g0, a.g1, scratch)
		}
		for _, f := range faces {
			dst.ApplyDomainBoundary(f.dir, f.side, a.g0, a.g1)
		}
	})
}

// Compute spawns one stencil task per block, in-out on the block's interior and
// halo, so it naturally follows the ghost fills and the next stage's
// fills, packs and unpacks follow it. The halo is in-out although the
// 7-point kernel only reads it: the 27-point one first completes it with
// edges and corners.
//
//amr:hot allocs=0
func (d *dataFlowDriver) Compute(_, g0, g1 int) error {
	s := d.s
	gi := d.groupIndex(g0)
	d.plan()
	for i, blk := range d.blocks {
		d.g.Spawn("stencil", d.stencilJobs.Body(args{i: i, g0: g0, g1: g1}),
			d.g.InOut(d.interior(i, gi), d.halo(i, gi))...)
		s.flops += s.stencilFlops(blk, g0, g1)
	}
	return nil
}

// stencil is a stencil task: the kernel on owned block a.i.
func (d *dataFlowDriver) stencil(t *task.Task, a *args) {
	s := d.s
	gi := d.groupIndex(a.g0)
	halo := d.halo(a.i, gi)
	d.g.NoteRead(t, halo)
	if s.cfg.Stencil == 27 {
		d.g.NoteWrite(t, halo)
	}
	d.g.NoteWrite(t, d.interior(a.i, gi))
	s.rec.Span(s.rank, t.Worker(), "stencil", func() { s.runStencil(d.blocks[a.i], a.g0, a.g1) })
}

// Checksum spawns local-reduction tasks into the current parity's slots
// and validates either this stage (default) or the previous one
// (DelayedChecksum), so the barrier does not drain in-flight stages. The
// pin is slices.Grow's panic message.
//
//amr:hot allocs=1
func (d *dataFlowDriver) Checksum(int) error {
	s := d.s
	par := d.parity
	d.parity ^= 1

	d.plan()
	slots := slices.Grow(d.slots[par][:0], len(d.blocks))[:len(d.blocks)]
	d.slots[par] = slots
	for i := range d.blocks {
		slot := s.arena.GetFloat64(s.cfg.Vars) // Checksum overwrites it
		slots[i] = slot
		deps := d.regs[:0]
		for gi := 0; gi < d.groups; gi++ {
			deps = append(deps, d.interior(i, gi))
		}
		d.regs = deps
		d.g.Spawn("cksum-local", d.sumJobs.Body(args{i: i, par: par, slot: slot}),
			d.g.Merge(d.g.In(deps...), d.g.Out(d.slot(par, i)))...)
	}
	d.pending[par] = true

	if s.cfg.DelayedChecksum {
		// Validate the previous stage's sums; its tasks have almost
		// certainly completed, so this "taskwait with dependencies" lets
		// the current stage keep flowing.
		return d.flushChecksum(par ^ 1)
	}
	return d.flushChecksum(par)
}

// sumBlock is a local checksum task: owned block a.i's sums into its slot.
func (d *dataFlowDriver) sumBlock(t *task.Task, a *args) {
	s := d.s
	for gi := 0; gi < d.groups; gi++ {
		d.g.NoteRead(t, d.interior(a.i, gi))
	}
	d.g.NoteWrite(t, d.slot(a.par, a.i))
	s.rec.Span(s.rank, t.Worker(), "cksum-local", func() {
		d.blocks[a.i].Checksum(0, s.cfg.Vars, a.slot)
	})
}

// flushChecksum waits (with dependencies only) for one parity's local
// reductions and runs the global reduction and validation. A pending
// parity is always of the current epoch: Quiesce settles both before a
// refinement.
func (d *dataFlowDriver) flushChecksum(par int) error {
	if !d.pending[par] {
		return nil
	}
	d.pending[par] = false
	s := d.s
	sums := d.regs[:0]
	for i := range d.slots[par] {
		sums = append(sums, d.slot(par, i))
	}
	d.regs = sums
	d.g.WaitKeys(sums...)
	if err := d.g.X.Err(); err != nil {
		return err
	}
	local := s.combineBlockSums(d.slots[par])
	for _, slot := range d.slots[par] {
		s.arena.PutFloat64(slot)
	}
	return s.reduceAndValidate(local)
}

// BeginStep has no per-step work: miniAMR's stages do not vary within a
// timestep.
func (d *dataFlowDriver) BeginStep(int) error { return nil }

// Quiesce closes the parallelism (the explicit taskwait the paper keeps
// before refinement) and settles any pending delayed checksum.
func (d *dataFlowDriver) Quiesce() error {
	d.g.Wait()
	if err := d.g.X.Err(); err != nil {
		return err
	}
	for par := 0; par < 2; par++ {
		if err := d.flushChecksum(par); err != nil {
			return err
		}
	}
	return nil
}

// Refine runs the taskified refinement phase after draining in-flight
// work (Quiesce is idempotent; the main loop already calls it outside the
// refinement clock): the loop variants' refinement with the per-block
// copies as tasks and the block transfers as TAMPI tasks.
func (d *dataFlowDriver) Refine(advance bool) (bool, error) {
	s := d.s
	if err := d.Quiesce(); err != nil {
		return false, err
	}
	if advance {
		s.advanceObjects()
	}
	if s.cfg.SequentialRefinement {
		// Ablation: run the whole refinement phase serially, as before the
		// paper's Section IV-B taskification.
		return s.refineEpoch(s.sequentialRefineExec())
	}
	exec := s.loopRefineExec(d.g.ParFor)
	exec.mover = &taskMover{d: d}
	return s.refineEpoch(exec)
}

// Drain completes the run: wait out the graph and settle pending delayed
// checksums.
func (d *dataFlowDriver) Drain() error {
	d.g.Wait()
	for par := 0; par < 2; par++ {
		if err := d.flushChecksum(par); err != nil {
			return err
		}
	}
	return d.g.X.Err()
}

// taskMover transfers whole blocks for the refinement exchange with
// taskified packing, TAMPI sends/receives and unpacking, while the control
// messages stay on the main goroutine (the paper's Section IV-B design).
type taskMover struct {
	d *dataFlowDriver
}

func (m *taskMover) begin(moves int) {
	m.d.xfers, m.d.nxfers = m.d.g.Reserve(2*moves), 2*moves
}

func (m *taskMover) sendBlock(bc mesh.Coord, blk *grid.Data, to, tag int) {
	d := m.d
	s := d.s
	lease := s.arena.LeaseFloat64(blk.InteriorLen())
	key := d.xfer(tag, false)
	d.g.Spawn("exchange-pack", func(t *task.Task) {
		d.g.NoteWrite(t, key)
		s.rec.Span(s.rank, t.Worker(), "exchange-pack", func() { blk.PackInterior(lease.Float64()) })
	}, d.g.Out(key)...)
	d.g.Spawn("exchange-send", func(t *task.Task) {
		d.g.NoteRead(t, key)
		if err := d.g.X.IsendOwned(t, lease, to, tag); err != nil {
			panic(err)
		}
	}, d.g.In(key)...)
}

func (m *taskMover) recvBlock(bc mesh.Coord, from, tag int) *grid.Data {
	d := m.d
	s := d.s
	blk := s.newBlockData(bc, false)
	buf := s.arena.GetFloat64(blk.InteriorLen())
	key := d.xfer(tag, true)
	d.g.Spawn("exchange-recv", func(t *task.Task) {
		d.g.NoteWrite(t, key)
		if err := d.g.X.Irecv(t, buf, from, tag); err != nil {
			panic(err)
		}
	}, d.g.Out(key)...)
	d.g.Spawn("exchange-unpack", func(t *task.Task) {
		d.g.NoteRead(t, key)
		s.rec.Span(s.rank, t.Worker(), "exchange-unpack", func() { blk.UnpackInterior(buf) })
		s.arena.PutFloat64(buf)
	}, d.g.In(key)...)
	return blk
}

func (m *taskMover) barrier() error {
	m.d.g.Wait()
	return m.d.g.X.Err()
}
