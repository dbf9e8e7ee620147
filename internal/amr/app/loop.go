package app

import (
	"fmt"
	"time"

	"miniamr/internal/amr/comm"
	"miniamr/internal/amr/grid"
	"miniamr/internal/amr/mesh"
	"miniamr/internal/driver"
	"miniamr/internal/membuf"
	"miniamr/internal/mpi"
	"miniamr/internal/task"
	"miniamr/internal/trace"
)

// RunMPIOnly executes the simulation with the reference MPI-only strategy
// (Algorithm 1/2 of the paper): the loop driver on one worker per rank,
// as the reference's MPI+OpenMP build is its MPI code plus pragmas. Every
// region runs inline on the rank's only thread.
func RunMPIOnly(cfg Config, c *mpi.Comm, rec *trace.Recorder) (Result, error) {
	return runLoop(cfg, 1, c, rec)
}

// RunForkJoin executes the simulation with the hybrid MPI+OpenMP fork-join
// strategy of the paper's comparison variant: stencil, packing/unpacking,
// intra-process copies, local checksum reduction and block
// splitting/consolidation run in parallel loops over cfg.Workers threads,
// while all MPI communication stays on the master thread.
func RunForkJoin(cfg Config, c *mpi.Comm, rec *trace.Recorder) (Result, error) {
	return runLoop(cfg, cfg.Workers, c, rec)
}

func runLoop(cfg Config, workers int, c *mpi.Comm, rec *trace.Recorder) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	s, err := newState(&cfg, c, rec, 1) // one aggregated message per peer and direction
	if err != nil {
		return Result{}, err
	}
	d := newLoopDriver(s, workers)
	defer d.eng.ClosePool()
	var obs task.Observer
	if cfg.TaskObserver != nil {
		obs = cfg.TaskObserver(c.Rank())
	}
	res, err := runMain(s, driver.Observe(d, obs))
	if err != nil {
		return Result{}, err
	}
	d.eng.Close()
	s.close()
	return res, nil
}

// scratchLen sizes a staging buffer for the largest cross-level local copy.
func scratchLen(cfg *Config) int {
	mx := cfg.BlockSize.Y * cfg.BlockSize.Z
	if n := cfg.BlockSize.X * cfg.BlockSize.Z; n > mx {
		mx = n
	}
	if n := cfg.BlockSize.X * cfg.BlockSize.Y; n > mx {
		mx = n
	}
	return mx * cfg.CommVars
}

// loopDriver is the stage set of both loop-parallel variants. The master
// sets a region's context in the fields below and forks the region; the
// bodies read it from there. The per-stage path must not allocate at any
// worker count, so the lists are reused across stages and the bodies are
// bound once (a closure or method value made per region is a heap object
// per region).
type loopDriver struct {
	s *state
	// eng owns the workers, the per-worker scratch buffers and arena
	// caches, and the master thread's reused waitset and send list.
	eng *driver.LoopEngine

	dir    grid.Dir
	g0, g1 int
	jobs   []faceJob       // the pack or unpack region's transfers
	leases []*membuf.Lease // the direction's outgoing payloads, by send plan

	packFaces, copyLocals, applyBoundaries, unpackFaces, stencilBlocks func(i, w int)
}

// faceJob is one transfer of a message with its section of the payload.
type faceJob struct {
	tr  *comm.Transfer
	buf []float64
}

func newLoopDriver(s *state, workers int) *loopDriver {
	d := &loopDriver{s: s, eng: driver.NewLoopEngine(s.arena, workers, scratchLen(s.cfg),
		s.cfg.ForkJoinSchedule == "dynamic")}
	d.packFaces, d.copyLocals, d.applyBoundaries = d.packFace, d.copyLocal, d.applyBoundary
	d.unpackFaces, d.stencilBlocks = d.unpackFace, d.stencilBlock
	return d
}

// addSections appends one job per transfer of a message (a flat index
// space across the messages added), each over its section of the payload.
func (d *loopDriver) addSections(msg []comm.Transfer, buf []float64) {
	gv, off := d.g1-d.g0, 0
	for i := range msg {
		n := msg[i].Len(gv)
		d.jobs = append(d.jobs, faceJob{tr: &msg[i], buf: buf[off : off+n]})
		off += n
	}
}

// BeginStep has no per-step work: miniAMR's stages do not vary within a
// timestep.
func (d *loopDriver) BeginStep(int) error { return nil }

// Communicate exchanges the ghost faces of the variable group [g0, g1):
// per direction the master posts the receives, a region packs the outgoing
// faces for the master to send, regions run the same-rank copies and
// boundary faces while the messages fly, and one region per arrival
// unpacks it.
func (d *loopDriver) Communicate(_, g0, g1 int) error {
	s := d.s
	d.g0, d.g1 = g0, g1
	gv := g1 - g0
	ws := d.eng.Wait()
	for dir := grid.DirX; dir <= grid.DirZ; dir++ {
		d.dir = dir
		sched := s.scheds[dir]

		// Master posts all receives; the waitset index of each request is
		// its plan index.
		ws.Reset()
		for i := range s.recvPlans[dir] {
			pl := &s.recvPlans[dir][i]
			req, err := s.comm.Irecv(s.recvBufs[dir].Buf(i)[:pl.cells*gv], pl.peer, pl.tag)
			if err != nil {
				return err
			}
			ws.Add(req)
		}

		// Pack every outgoing transfer into fresh arena leases in one
		// region, then master sends them with ownership transfer: the
		// receiving rank returns the buffer to the arena after unpacking.
		d.jobs, d.leases = d.jobs[:0], d.leases[:0]
		for i := range s.sendPlans[dir] {
			pl := &s.sendPlans[dir][i]
			lease := s.arena.LeaseFloat64(pl.cells * gv)
			d.addSections(pl.msg, lease.Float64())
			d.leases = append(d.leases, lease)
		}
		d.eng.ParFor(len(d.jobs), d.packFaces)
		for i := range s.sendPlans[dir] {
			pl := &s.sendPlans[dir][i]
			req, err := s.comm.IsendOwned(d.leases[i], pl.peer, pl.tag)
			if err != nil {
				// The failed and the not-yet-sent leases are still ours;
				// in-flight sends must settle before their buffers die.
				for _, rest := range d.leases[i:] {
					rest.Release()
				}
				d.eng.FlushSends()
				return err
			}
			d.eng.TrackSend(req)
		}

		// Intra-process copies and boundary conditions overlap the
		// in-flight MPI transfers. Distinct transfers write distinct ghost
		// cells, so the regions are race-free.
		d.eng.ParFor(len(sched.Local), d.copyLocals)
		d.eng.ParFor(len(sched.Boundary), d.applyBoundaries)

		// Master waits for arrivals; each message unpacks in one region.
		for remaining := ws.Len(); remaining > 0; remaining-- {
			var idx int
			var werr error
			s.rec.Span(s.rank, 0, "MPI_Waitany", func() {
				idx, _, werr = ws.Next()
			})
			if werr != nil {
				return werr
			}
			d.jobs = d.jobs[:0]
			d.addSections(s.recvPlans[dir][idx].msg, s.recvBufs[dir].Buf(idx))
			d.eng.ParFor(len(d.jobs), d.unpackFaces)
		}

		// Wait until all sends complete before reusing the direction's
		// buffers, as the reference does; the engine recycles the requests.
		if err := d.eng.FlushSends(); err != nil {
			return err
		}
	}
	return nil
}

func (d *loopDriver) packFace(i, w int) {
	s, job := d.s, &d.jobs[i]
	s.rec.Span(s.rank, w, "pack", func() {
		comm.Pack(*job.tr, s.data[job.tr.Src], d.g0, d.g1, job.buf)
	})
}

func (d *loopDriver) copyLocal(i, w int) {
	s, tr := d.s, &d.s.scheds[d.dir].Local[i]
	s.rec.Span(s.rank, w, "local-copy", func() {
		comm.ExecuteLocal(*tr, s.data[tr.Src], s.data[tr.Recv], d.g0, d.g1, d.eng.Scratch(w))
	})
}

// applyBoundary fills one domain-boundary face. It is a same-rank ghost
// fill, accounted like the others (and like the data-flow variant's).
func (d *loopDriver) applyBoundary(i, w int) {
	s, bf := d.s, &d.s.scheds[d.dir].Boundary[i]
	s.rec.Span(s.rank, w, "local-copy", func() {
		s.data[bf.Block].ApplyDomainBoundary(d.dir, bf.Side, d.g0, d.g1)
	})
}

func (d *loopDriver) unpackFace(i, w int) {
	s, job := d.s, &d.jobs[i]
	s.rec.Span(s.rank, w, "unpack", func() {
		comm.Unpack(*job.tr, s.data[job.tr.Recv], d.g0, d.g1, job.buf)
	})
}

// Compute applies the stencil to every owned block in one region.
func (d *loopDriver) Compute(_, g0, g1 int) error {
	s := d.s
	d.g0, d.g1 = g0, g1
	owned := s.owned()
	d.eng.ParFor(len(owned), d.stencilBlocks)
	for _, bc := range owned {
		s.flops += s.stencilFlops(s.data[bc], g0, g1)
	}
	return nil
}

func (d *loopDriver) stencilBlock(i, w int) {
	s := d.s
	blk := s.data[s.owned()[i]]
	s.rec.Span(s.rank, w, "stencil", func() { s.runStencil(blk, d.g0, d.g1) })
}

// Checksum reduces every owned block in one region and validates the
// global sums on the master.
func (d *loopDriver) Checksum(int) error {
	s := d.s
	owned := s.owned()
	sums := make([][]float64, len(owned))
	d.eng.ParFor(len(owned), func(i, w int) {
		out := d.eng.Cache(w).GetFloat64(s.cfg.Vars) // Checksum overwrites it
		blk := s.data[owned[i]]
		s.rec.Span(s.rank, w, "cksum-local", func() { blk.Checksum(0, s.cfg.Vars, out) })
		sums[i] = out
	})
	// Deterministic combine in block order on the master.
	local := s.combineBlockSums(sums)
	for _, out := range sums {
		s.arena.PutFloat64(out)
	}
	return s.reduceAndValidate(local)
}

// Refine runs one refinement phase with the per-block copies in regions.
func (d *loopDriver) Refine(advance bool) (bool, error) {
	s := d.s
	if advance {
		s.advanceObjects()
	}
	return s.refineEpoch(s.loopRefineExec(unlabelled(d.eng.ParFor)))
}

// loopRefineExec is the loop variants' refinement execution: the per-block
// copies under the given parallel-for, the block transfers blocking on the
// master. The data-flow driver runs it with the graph engine's parallel-for
// and its own mover.
func (s *state) loopRefineExec(parFor func(label string, n int, body func(i, w int))) refineExec {
	return refineExec{parFor: parFor, mover: &blockingMover{s: s}}
}

// unlabelled adapts a loop engine's parallel-for to refineExec's: only the
// graph engine's tasks carry the label.
func unlabelled(parFor func(n int, body func(i, w int))) func(string, int, func(i, w int)) {
	return func(_ string, n int, body func(i, w int)) { parFor(n, body) }
}

// sequentialRefineExec is the refinement execution of the data-flow
// SequentialRefinement ablation: the loop driver's, on one worker.
func (s *state) sequentialRefineExec() refineExec {
	return s.loopRefineExec(unlabelled(driver.RunInline))
}

// splitOwned parallelises the per-block child copies (the paper extends
// the fork-join variant with exactly this for a fair comparison).
func (s *state) splitOwned(exec refineExec, refines []mesh.Coord) error {
	children := make([][8]*grid.Data, len(refines))
	for i, bc := range refines {
		for o := 0; o < 8; o++ {
			children[i][o] = s.newBlockData(bc.Child(o), false)
		}
	}
	exec.parFor("split", len(refines), func(i, w int) {
		parent := s.data[refines[i]]
		s.rec.Span(s.rank, w, "split", func() { parent.SplitInto(&children[i]) })
	})
	for i, bc := range refines {
		s.releaseBlock(s.data[bc])
		delete(s.data, bc)
		for o := 0; o < 8; o++ {
			s.data[bc.Child(o)] = children[i][o]
		}
	}
	return nil
}

func (s *state) consolidateOwned(exec refineExec, parents []mesh.Coord) error {
	type job struct {
		parent   *grid.Data
		children [8]*grid.Data
	}
	jobs := make([]job, len(parents))
	for i, p := range parents {
		jobs[i].parent = s.newBlockData(p, false)
		for o := 0; o < 8; o++ {
			ch, ok := s.data[p.Child(o)]
			if !ok {
				return fmt.Errorf("app: consolidation of %v: child %d not local", p, o)
			}
			jobs[i].children[o] = ch
		}
	}
	exec.parFor("consolidate", len(jobs), func(i, w int) {
		s.rec.Span(s.rank, w, "consolidate", func() { jobs[i].parent.ConsolidateFrom(&jobs[i].children) })
	})
	for i, p := range parents {
		for o := 0; o < 8; o++ {
			s.releaseBlock(jobs[i].children[o])
			delete(s.data, p.Child(o))
		}
		s.data[p] = jobs[i].parent
	}
	return nil
}

// Drain has nothing to complete: regions end with an implicit barrier.
func (d *loopDriver) Drain() error { return nil }

// blockingMover transfers block payloads inline with blocking operations on
// the calling (master) thread, the reference behaviour.
type blockingMover struct {
	s *state
}

func (m *blockingMover) sendBlock(bc mesh.Coord, blk *grid.Data, to, tag int) {
	s := m.s
	lease := s.arena.LeaseFloat64(blk.InteriorLen())
	s.rec.Span(s.rank, 0, "exchange-pack", func() { blk.PackInterior(lease.Float64()) })
	start := time.Now()
	if err := s.comm.SendOwned(lease, to, tag); err != nil {
		panic(err) // protocol code has verified arguments; transport errors are fatal here
	}
	s.rec.Record(s.rank, 0, "exchange-send", start, time.Now())
}

func (m *blockingMover) recvBlock(bc mesh.Coord, from, tag int) *grid.Data {
	s := m.s
	blk := s.newBlockData(bc, false)
	buf := s.arena.GetFloat64(blk.InteriorLen())
	start := time.Now()
	if _, err := s.comm.Recv(buf, from, tag); err != nil {
		panic(err)
	}
	s.rec.Record(s.rank, 0, "exchange-recv", start, time.Now())
	s.rec.Span(s.rank, 0, "exchange-unpack", func() { blk.UnpackInterior(buf) })
	s.arena.PutFloat64(buf)
	return blk
}

func (m *blockingMover) begin(int) {}

func (m *blockingMover) barrier() error { return nil }

// Quiesce is a no-op: regions end with an implicit barrier.
func (d *loopDriver) Quiesce() error { return nil }
