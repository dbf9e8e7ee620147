package app

import (
	"fmt"
	"slices"
	"time"

	"miniamr/internal/amr/comm"
	"miniamr/internal/amr/grid"
	"miniamr/internal/amr/mesh"
	"miniamr/internal/driver"
	"miniamr/internal/mpi"
	"miniamr/internal/task"
	"miniamr/internal/trace"
)

// Dependency keys of the data-flow taskification. Dependencies are
// declared at the granularity the paper describes: a mesh block and its
// variable group (never individual faces), plus communication buffer
// sections. A block is two regions, because its two parts have different
// writers: the stencil writes the interior, the ghost exchange the halo.
type (
	// blockKey is the interior of a block's variable-group range: written
	// by stencil, read by pack, by the fills of the neighbouring blocks and
	// by the checksum. Block state persists across timesteps, and graphlint
	// matches it as one class so the pack -> stencil -> checksum chain is
	// visible at the phase level.
	//
	//amr:region state
	blockKey struct {
		c mesh.Coord
		g int // group index
	}
	// ghostKey is the halo of the same range, all six faces: filled by the
	// block's fill task and its unpack tasks, consumed (and for the 27-point
	// kernel completed with edges and corners) by stencil.
	//
	//amr:region state
	ghostKey struct {
		c mesh.Coord
		g int
	}
	// sectKey is one transfer's section of a message buffer. dirKey is the
	// direction+1, or 0 when buffers are shared across directions
	// (reproducing the false dependencies that --separate_buffers removes).
	// Sections are per-stage: produced, consumed once, recycled.
	//
	//amr:region stage match=dirKey,send,idx
	sectKey struct {
		dirKey int
		peer   int
		msg    int
		send   bool
		idx    int
	}
	// slotKey is a per-block checksum accumulator slot; parity alternates
	// between consecutive checksum stages for the delayed validation
	// (class matching: the delayed flush reads the other parity).
	//
	//amr:region stage
	slotKey struct {
		c      mesh.Coord
		parity int
	}
	// xferKey orders the pack->send and recv->unpack pairs of the
	// refinement block exchange, keyed by the move's data tag.
	//
	//amr:region stage match=recv
	xferKey struct {
		tag  int
		recv bool
	}
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
	res, err := runMain(d.s, d)
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
	g, err := driver.NewGraphEngine(driver.GraphOptions{
		Comm:                      c,
		Recorder:                  rec,
		Workers:                   cfg.Workers,
		DisableImmediateSuccessor: cfg.DisableImmediateSuccessor,
		Sanitizer:                 cfg.Sanitizer,
		Observer:                  obs,
		ScratchLen:                scratchLen(cfg),
	})
	if err != nil {
		return nil, err
	}
	return &dataFlowDriver{s: s, g: g, groups: len(cfg.Groups())}, nil
}

type dataFlowDriver struct {
	s *state
	// g owns the task runtime, the task-aware MPI context, the per-worker
	// scratch buffers and the sanitizer/trace plumbing.
	g *driver.GraphEngine

	// unpacks is communicate's list of pending unpack tasks; keys is the
	// multidependency list of the task being spawned, which In copies. Both
	// are kept for their storage.
	unpacks []unpackJob
	keys    []any

	// What the driver derives from the mesh, valid for the state epoch
	// planned (see plan): the fill plan and the boxed dependency keys, the
	// interior and halo key of owned block i's group gi at own and
	// halo[i*groups+gi]. A key is boxed on first use — the literal spelled in
	// the function that spawns, where graphlint's extractor reads it — and
	// its slot is never written again within the epoch: every later task that
	// names the region shares the boxed value, and task bodies may read the
	// tables while later stages are being spawned.
	planned   int
	groups    int
	fill      fillPlan
	own, halo []any

	// Delayed-checksum state: two parities of per-block sum slots.
	parity     int
	slots      [2]map[mesh.Coord][]float64
	slotBlocks [2][]mesh.Coord
	pending    [2]bool
}

// unpackJob is one received transfer waiting for its unpack task: the
// section of the receive buffer it reads and that section's boxed key.
type unpackJob struct {
	tr  comm.Transfer
	sec []float64
	key any
}

// dirKey folds the direction into buffer keys, or collapses all directions
// onto one key space when buffers are shared.
func (d *dataFlowDriver) dirKey(dir grid.Dir) int {
	if d.s.cfg.SeparateBuffers {
		return int(dir) + 1
	}
	return 0
}

// groupIndex converts a group's first variable to its index.
func (d *dataFlowDriver) groupIndex(g0 int) int { return g0 / d.s.cfg.CommVars }

// plan brings what the driver derives from the mesh up to date: a no-op
// within a mesh epoch. It runs on the spawning goroutine at the top of a
// phase; the only rebuilds follow a refinement, which drained the graph,
// so no task reads the storage it recycles.
func (d *dataFlowDriver) plan() {
	s := d.s
	if d.planned == s.epoch {
		return
	}
	d.planned = s.epoch
	owned := s.owned()
	d.fill.build(owned, &s.scheds)
	d.own = resetKeys(d.own, len(owned)*d.groups)
	d.halo = resetKeys(d.halo, len(owned)*d.groups)
}

// resetKeys returns keys emptied and resized to n entries.
func resetKeys(keys []any, n int) []any {
	keys = slices.Grow(keys[:0], n)[:n]
	clear(keys)
	return keys
}

// communicate taskifies the ghost exchange (the paper's Algorithm 3): per
// direction a receive task per message binding the request, pack tasks per
// face and send tasks per message with multidependencies on the packed
// sections; then one fill task per block for everything that stays within
// the rank; then the unpack tasks fed by the receives' buffer sections.
//
//amr:graph driver=dataflow phase=communicate seq=1
//amr:par label=recv axis=msgs
//amr:par label=pack axis=segs
//amr:par label=send axis=msgs
//amr:par label=local-copy axis=blocks
//amr:par label=unpack axis=msgs
func (d *dataFlowDriver) communicate(g0, g1 int) error {
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
		dk := d.dirKey(dir)

		// Receives: one task per incoming message; its completion is
		// bound to the MPI request, so unpackers run only once the
		// data arrived (the buffer must not be consumed in the task).
		for pi := range s.recvPlans[dir] {
			pl := &s.recvPlans[dir][pi]
			peer, mi, msg, tag := pl.peer, pl.mi, pl.msg, pl.tag
			buf := s.recvBufs[dir].Buf(pi)[:pl.cells*gv]
			// A message's section keys are the same at every stage of
			// the epoch: box them once, on first use of the plan.
			secs := pl.secs
			if secs == nil {
				secs = make([]any, len(msg))
				for i := range msg {
					secs[i] = sectKey{dirKey: dk, peer: peer, msg: mi, idx: i}
				}
				pl.secs = secs
			}
			d.g.Spawn("recv", func(t *task.Task) {
				for _, k := range secs {
					d.g.NoteWrite(t, k) // the arriving message fills every section
				}
				if s.cfg.BlockingTAMPI {
					// TAMPI's blocking mode: the task pauses until the
					// message arrives, releasing its core meanwhile.
					start := time.Now()
					if _, err := d.g.X.Recv(t, buf, peer, tag); err != nil {
						panic(err)
					}
					s.rec.Record(s.rank, t.Worker(), "recv-wait", start, time.Now())
					return
				}
				req, err := s.comm.Irecv(buf, peer, tag)
				if err != nil {
					panic(err)
				}
				d.g.RecordInFlight(t, "recv-wait", req)
				d.g.X.Iwait(t, req)
			}, d.g.Out(secs...)...)

			off := 0
			for i, tr := range msg {
				sec := buf[off : off+tr.Len(gv)]
				off += tr.Len(gv)
				d.g.BindSection(secs[i], sec)
				unpacks = append(unpacks, unpackJob{tr: tr, sec: sec, key: secs[i]})
			}
		}

		// Sends: the message buffer is a fresh arena lease; pack tasks
		// per face write their section of it, one send task per message
		// depends on all the sections and transfers the lease to the
		// MPI layer (the receiving rank returns it to the arena). The
		// section keys — not the physical buffers — carry the paper's
		// buffer-reuse dependencies, so chaining behaviour is unchanged.
		// Packers read interiors only: they depend on the previous
		// stage's stencil and on nothing of this stage.
		for pi := range s.sendPlans[dir] {
			pl := &s.sendPlans[dir][pi]
			peer, mi, msg, tag := pl.peer, pl.mi, pl.msg, pl.tag
			lease := s.arena.LeaseFloat64(pl.cells * gv)
			buf := lease.Float64()
			secs := pl.secs
			if secs == nil {
				secs = make([]any, len(msg))
				for i := range msg {
					secs[i] = sectKey{dirKey: dk, peer: peer, msg: mi, send: true, idx: i}
				}
				pl.secs = secs
			}
			off := 0
			for i, tr := range msg {
				sec := buf[off : off+tr.Len(gv)]
				off += tr.Len(gv)
				secKey := secs[i]
				// Struct keys are boxed once and shared between the
				// access list and the sanitizer notes.
				src := any(blockKey{c: tr.Src, g: gi})
				d.g.Spawn("pack", func(t *task.Task) {
					d.g.NoteRead(t, src)
					d.g.NoteWrite(t, secKey)
					s.rec.Span(s.rank, t.Worker(), "pack", func() {
						comm.Pack(tr, s.data[tr.Src], g0, g1, sec)
					})
				}, d.g.Merge(
					d.g.In(src),
					d.g.Out(secKey),
				)...)
			}
			d.g.Spawn("send", func(t *task.Task) {
				for _, k := range secs {
					d.g.NoteRead(t, k) // the send serialises every packed section
				}
				if s.cfg.BlockingTAMPI {
					start := time.Now()
					if err := d.g.X.SendOwned(t, lease, peer, tag); err != nil {
						panic(err)
					}
					s.rec.Record(s.rank, t.Worker(), "send-wait", start, time.Now())
					return
				}
				req, err := s.comm.IsendOwned(lease, peer, tag)
				if err != nil {
					panic(err)
				}
				d.g.RecordInFlight(t, "send-wait", req)
				d.g.X.Iwait(t, req)
			}, d.g.In(secs...)...)
		}
	}

	d.fillGhosts(g0, g1)

	// Unpackers: consume the receives' buffer sections into block ghosts
	// once the bound requests complete.
	for _, uj := range unpacks {
		dst := any(ghostKey{c: uj.tr.Recv, g: gi})
		d.g.Spawn("unpack", func(t *task.Task) {
			d.g.NoteRead(t, uj.key)
			d.g.NoteWrite(t, dst)
			s.rec.Span(s.rank, t.Worker(), "unpack", func() {
				comm.Unpack(uj.tr, s.data[uj.tr.Recv], g0, g1, uj.sec)
			})
		}, d.g.Merge(
			d.g.In(uj.key),
			d.g.InOut(dst),
		)...)
	}
	d.unpacks = unpacks
	return d.g.X.Err()
}

// fillGhosts spawns the intra-rank exchange: one task per destination
// block of the epoch's fill plan, running the local copies of all three
// directions into the block and its domain-boundary faces. The face
// kernels read only interiors and write disjoint ghost cells, so any order
// gives the same bits. A fill reads the interiors of its sources and
// writes the destination's halo; it keeps the label of the per-face copy
// tasks it replaces, which is what traces and the benchmark fold it under.
func (d *dataFlowDriver) fillGhosts(g0, g1 int) {
	s, fp := d.s, &d.fill
	gi := d.groupIndex(g0)
	owned := s.owned()
	var from fillBlock
	for _, fb := range fp.blocks {
		dst := s.data[owned[fb.owned]]
		copies, faces := fp.copies[from.copies:fb.copies], fp.faces[from.faces:fb.faces]
		srcIdx := fp.srcs[from.srcs:fb.srcs]
		from = fb
		srcs := d.keys[:0]
		for _, j := range srcIdx {
			src := d.own[j*d.groups+gi]
			if src == nil {
				src = any(blockKey{c: owned[j], g: gi})
				d.own[j*d.groups+gi] = src
			}
			srcs = append(srcs, src)
		}
		d.keys = srcs
		halo := d.halo[fb.owned*d.groups+gi]
		if halo == nil {
			halo = any(ghostKey{c: owned[fb.owned], g: gi})
			d.halo[fb.owned*d.groups+gi] = halo
		}
		d.g.Spawn("local-copy", func(t *task.Task) {
			for _, j := range srcIdx {
				d.g.NoteRead(t, d.own[j*d.groups+gi])
			}
			d.g.NoteWrite(t, halo)
			s.rec.Span(s.rank, t.Worker(), "local-copy", func() {
				scratch := d.g.Scratch(t.Worker())
				for _, tr := range copies {
					comm.ExecuteLocal(tr, s.data[tr.Src], dst, g0, g1, scratch)
				}
				for _, f := range faces {
					dst.ApplyDomainBoundary(f.dir, f.side, g0, g1)
				}
			})
		}, d.g.Merge(
			d.g.In(srcs...),
			d.g.InOut(halo),
		)...)
	}
}

// stencil spawns one task per block, in-out on the block's interior and
// halo, so it naturally follows the ghost fills and the next stage's
// fills, packs and unpacks follow it. The halo is in-out although the
// 7-point kernel only reads it: the 27-point one first completes it with
// edges and corners.
//
//amr:graph driver=dataflow phase=stencil seq=2
//amr:par label=stencil axis=blocks
func (d *dataFlowDriver) stencil(g0, g1 int) error {
	s := d.s
	gi := d.groupIndex(g0)
	d.plan()
	for i, bc := range s.owned() {
		blk := s.data[bc]
		own, halo := d.own[i*d.groups+gi], d.halo[i*d.groups+gi]
		if own == nil {
			own = any(blockKey{c: bc, g: gi})
			d.own[i*d.groups+gi] = own
		}
		if halo == nil {
			halo = any(ghostKey{c: bc, g: gi})
			d.halo[i*d.groups+gi] = halo
		}
		d.g.Spawn("stencil", func(t *task.Task) {
			d.g.NoteRead(t, halo)
			if s.cfg.Stencil == 27 {
				d.g.NoteWrite(t, halo)
			}
			d.g.NoteWrite(t, own)
			s.rec.Span(s.rank, t.Worker(), "stencil", func() { s.runStencil(blk, g0, g1) })
		}, d.g.InOut(own, halo)...)
		s.flops += s.stencilFlops(blk, g0, g1)
	}
	return nil
}

// checksum spawns local-reduction tasks into the current parity's slots
// and validates either this stage (default) or the previous one
// (DelayedChecksum), so the barrier does not drain in-flight stages.
//
//amr:graph driver=dataflow phase=checksum seq=3
//amr:par label=cksum-local axis=blocks
func (d *dataFlowDriver) checksum() error {
	s := d.s
	par := d.parity
	d.parity ^= 1

	d.plan()
	owned := s.owned()
	d.slots[par] = make(map[mesh.Coord][]float64, len(owned))
	d.slotBlocks[par] = owned
	for i, bc := range owned {
		slot := s.arena.GetFloat64(s.cfg.Vars) // Checksum overwrites it
		d.slots[par][bc] = slot
		blk := s.data[bc]
		deps := d.keys[:0]
		for gi := 0; gi < d.groups; gi++ {
			dep := d.own[i*d.groups+gi]
			if dep == nil {
				dep = any(blockKey{c: bc, g: gi})
				d.own[i*d.groups+gi] = dep
			}
			deps = append(deps, dep)
		}
		d.keys = deps
		sum := any(slotKey{c: bc, parity: par})
		d.g.Spawn("cksum-local", func(t *task.Task) {
			for _, dep := range d.own[i*d.groups : (i+1)*d.groups] {
				d.g.NoteRead(t, dep)
			}
			d.g.NoteWrite(t, sum)
			s.rec.Span(s.rank, t.Worker(), "cksum-local", func() {
				blk.Checksum(0, s.cfg.Vars, slot)
			})
		}, d.g.Merge(d.g.In(deps...), d.g.Out(sum))...)
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

// flushChecksum waits (with dependencies only) for one parity's local
// reductions and runs the global reduction and validation.
func (d *dataFlowDriver) flushChecksum(par int) error {
	if !d.pending[par] {
		return nil
	}
	d.pending[par] = false
	s := d.s
	blocks := d.slotBlocks[par]
	keys := make([]any, len(blocks))
	for i, bc := range blocks {
		keys[i] = slotKey{c: bc, parity: par}
	}
	d.g.WaitKeys(keys...)
	if err := d.g.X.Err(); err != nil {
		return err
	}
	local := s.combineBlockSums(blocks, d.slots[par])
	for _, bc := range blocks {
		s.arena.PutFloat64(d.slots[par][bc])
	}
	d.slots[par] = nil
	return s.reduceAndValidate(local)
}

// quiesce closes the parallelism (the explicit taskwait the paper keeps
// before refinement) and settles any pending delayed checksum.
func (d *dataFlowDriver) quiesce() error {
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

// refine runs the taskified refinement phase after draining in-flight
// work (quiesce is idempotent; the runner already calls it outside the
// refinement clock).
func (d *dataFlowDriver) refine(advance bool) (bool, error) {
	s := d.s
	if err := d.quiesce(); err != nil {
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
	return s.refineEpoch(refineExec{
		splitOwned:       d.splitOwned,
		consolidateOwned: d.consolidateOwned,
		mover:            &taskMover{d: d},
	})
}

// splitOwned taskifies the block-splitting copies.
//
//amr:graph driver=dataflow phase=split seq=4
//amr:par label=split axis=splits
func (d *dataFlowDriver) splitOwned(refines []mesh.Coord) error {
	s := d.s
	children := make([][8]*grid.Data, len(refines))
	for i, bc := range refines {
		for o := 0; o < 8; o++ {
			children[i][o] = s.newBlockData(bc.Child(o), false)
		}
		parent := s.data[bc]
		ch := &children[i]
		d.g.Spawn("split", func(t *task.Task) {
			s.rec.Span(s.rank, t.Worker(), "split", func() { parent.SplitInto(ch) })
		})
	}
	d.g.Wait()
	for i, bc := range refines {
		s.releaseBlock(s.data[bc])
		delete(s.data, bc)
		for o := 0; o < 8; o++ {
			s.data[bc.Child(o)] = children[i][o]
		}
	}
	return nil
}

// consolidateOwned taskifies the coarsening copies.
//
//amr:graph driver=dataflow phase=consolidate seq=5
//amr:par label=consolidate axis=merges
func (d *dataFlowDriver) consolidateOwned(parents []mesh.Coord) error {
	s := d.s
	newParents := make([]*grid.Data, len(parents))
	for i, p := range parents {
		var ch [8]*grid.Data
		for o := 0; o < 8; o++ {
			c, ok := s.data[p.Child(o)]
			if !ok {
				return fmt.Errorf("app: consolidation of %v: child %d not local", p, o)
			}
			ch[o] = c
		}
		newParents[i] = s.newBlockData(p, false)
		parent := newParents[i]
		d.g.Spawn("consolidate", func(t *task.Task) {
			s.rec.Span(s.rank, t.Worker(), "consolidate", func() { parent.ConsolidateFrom(&ch) })
		})
	}
	d.g.Wait()
	for i, p := range parents {
		for o := 0; o < 8; o++ {
			s.releaseBlock(s.data[p.Child(o)])
			delete(s.data, p.Child(o))
		}
		s.data[p] = newParents[i]
	}
	return nil
}

// drain completes the run: wait out the graph and settle pending delayed
// checksums.
func (d *dataFlowDriver) drain() error {
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

// sendBlock is anchored directly: the exchange protocol reaches it only
// through the blockMover interface, which static extraction cannot see
// through.
//
//amr:graph driver=dataflow phase=exchange-send seq=6
//amr:par label=exchange-pack axis=xfers
//amr:par label=exchange-send axis=xfers
func (m *taskMover) sendBlock(bc mesh.Coord, blk *grid.Data, to, tag int) {
	d := m.d
	s := d.s
	lease := s.arena.LeaseFloat64(blk.InteriorLen())
	key := any(xferKey{tag: tag})
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

//amr:graph driver=dataflow phase=exchange-recv seq=7
//amr:par label=exchange-recv axis=xfers
//amr:par label=exchange-unpack axis=xfers
func (m *taskMover) recvBlock(bc mesh.Coord, from, tag int) *grid.Data {
	d := m.d
	s := d.s
	blk := s.newBlockData(bc, false)
	buf := s.arena.GetFloat64(blk.InteriorLen())
	key := any(xferKey{tag: tag, recv: true})
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
