package hydro

import (
	"fmt"

	"miniamr/internal/driver"
	"miniamr/internal/task"
)

// dfDriver is the paper's hybrid data-flow stage set: every phase is
// taskified, tasks connect through data dependencies, and MPI operations
// are issued from tasks through the task-aware MPI layer. Dependencies are
// declared per tile and per communication buffer section, the same
// granularity the paper uses for miniAMR's blocks.
type dfDriver struct {
	s *state
	// g owns the task runtime, the task-aware MPI context, the per-worker
	// scratch buffers and the sanitizer/trace plumbing.
	g *driver.GraphEngine
	// unpacks is Communicate's list of pending unpack tasks and regs the
	// multidependency list being declared, both kept for their storage.
	unpacks []args
	regs    []task.Region

	// tiles is the first handle of the per-tile region tables (see tile),
	// reserved once, like the message sections: the tile set never changes.
	tiles task.Region
	// waveVals and sumSlots are the per-tile slots the CFL scan and the
	// checksum fill, in the order of state.tiles, reused across stages.
	waveVals []float64
	sumSlots [][]float64

	// The recycled job records of the task kinds.
	scanJobs, packJobs, copyJobs, unpackJobs, sweepJobs, sumJobs *driver.Jobs[args]
}

// reserve binds the driver to its engine and reserves the rank's dependency
// regions on it.
func (d *dfDriver) reserve(g *driver.GraphEngine) {
	s, n := d.s, len(d.s.tiles)
	d.g, d.waveVals, d.sumSlots = g, make([]float64, n), make([][]float64, n)
	d.scanJobs, d.packJobs, d.copyJobs = driver.NewJobs(d.scan), driver.NewJobs(d.pack), driver.NewJobs(d.copyEdge)
	d.unpackJobs, d.sweepJobs, d.sumJobs = driver.NewJobs(d.unpack), driver.NewJobs(d.sweep), driver.NewJobs(d.sumTile)
	d.tiles = g.Reserve(regTables * n)
	// A message's sections are one run of regions, long enough for any
	// message. With shared buffers both directions' messages of one peer
	// share a run (reproducing the false dependencies that separate buffers
	// remove).
	for _, send := range [2]bool{false, true} {
		var plans [2][]driver.Plan[seg]
		longest := 0
		for dir := range plans {
			plans[dir] = s.plans[dir].RecvPlans
			if send {
				plans[dir] = s.plans[dir].SendPlans
			}
			for _, pl := range plans[dir] {
				longest = max(longest, len(pl.Segs))
			}
		}
		var shared task.Region
		if !s.cfg.SeparateBuffers {
			shared = g.Reserve(s.comm.Size() * longest)
		}
		for dir := range plans {
			for pi := range plans[dir] {
				pl := &plans[dir][pi]
				if s.cfg.SeparateBuffers {
					pl.Sec = g.Reserve(len(pl.Segs))
				} else {
					pl.Sec = shared + task.Region(pl.Peer*longest)
				}
			}
		}
	}
}

// args is a task's arguments: the stage's direction; tile t, the i-th of the
// rank, with its data u and a checksum's slot; a pack's or unpack's segment
// sg with its message section sec and that section's region; a local copy.
type args struct {
	dir, i, t int
	u, slot   []float64
	sg        seg
	sec       []float64
	key       task.Region
	lc        localCopy
}

// The per-tile region tables. A tile is two regions, because its two parts
// have different writers: the sweep writes the interior, the ghost exchange
// the halo. Both persist across timesteps.
const (
	regInterior = iota // written by sweep; read by pack, cfl-scan, cksum-local and the local copies out of the tile
	regHalo            // written by the local copies into the tile and its unpacks, read by sweep
	regWave            // the CFL scan's slot, drained by the reduction's taskwait
	regSum             // the checksum's slot, drained by the validation's taskwait
	regTables
)

// tile is tile t's region in table k; a rank's tiles are a contiguous range
// of ids.
func (d *dfDriver) tile(k, t int) task.Region {
	return d.tiles + task.Region(k*len(d.s.tiles)+t-d.s.tiles[0])
}

// section is segment idx's section of the buffer of message pl. Sections
// are per-stage: produced, consumed once, recycled.
func section(pl *driver.Plan[seg], idx int) task.Region { return pl.Sec + task.Region(idx) }

// describe names a region in words for the sanitizer's reports.
func (d *dfDriver) describe(r task.Region) string {
	s, n := d.s, len(d.s.tiles)
	if i := int(r) - int(d.tiles); i >= 0 && i < regTables*n {
		return fmt.Sprintf("%s %d", [regTables]string{"interior", "halo", "wave", "sum"}[i/n], s.tiles[i%n])
	}
	for dir := range s.plans {
		for way, plans := range [2][]driver.Plan[seg]{s.plans[dir].RecvPlans, s.plans[dir].SendPlans} {
			for _, pl := range plans {
				if i := int(r) - int(pl.Sec); i >= 0 && i < len(pl.Segs) {
					return fmt.Sprintf("section dir=%d peer=%d idx=%d %s", dir, pl.Peer, i, [2]string{"recv", "send"}[way])
				}
			}
		}
	}
	return fmt.Sprintf("region %d", r.Index())
}

// BeginStep taskifies the CFL scan — one task per tile feeding a
// wave-speed slot — then closes the reduction with a taskwait on the
// slots and the global max on the main goroutine. The taskwait
// transitively drains every tile writer of the previous stage, so the
// following s.dt update never races a sweep.
func (d *dfDriver) BeginStep(ts int) error {
	s := d.s
	waves := d.regs[:0]
	for i, t := range s.tiles {
		wave := d.tile(regWave, t)
		waves = append(waves, wave)
		d.g.Spawn("cfl-scan", d.scanJobs.Body(args{i: i, t: t, u: s.data[t]}),
			d.g.Merge(d.g.In(d.tile(regInterior, t)), d.g.Out(wave))...)
		s.flops += s.waveFlops()
	}
	d.regs = waves
	d.g.WaitKeys(waves...)
	if err := d.g.X.Err(); err != nil {
		return err
	}
	wave := 0.0
	for _, wv := range d.waveVals {
		if wv > wave {
			wave = wv
		}
	}
	return s.reduceWave(wave)
}

// scan is a CFL scan task: the tile's maximum wave speed into its slot.
func (d *dfDriver) scan(tk *task.Task, a *args) {
	s := d.s
	d.g.NoteRead(tk, d.tile(regInterior, a.t))
	d.g.NoteWrite(tk, d.tile(regWave, a.t))
	s.rec.Span(s.rank, tk.Worker(), "cfl-scan", func() {
		d.waveVals[a.i] = s.maxWave(a.u)
	})
}

// Communicate taskifies the ghost exchange: a receive task per message
// binding the request, pack tasks per segment, send tasks with
// multidependencies on the packed sections, local copy tasks, and unpack
// tasks fed by the receive's buffer sections.
func (d *dfDriver) Communicate(stage, g0, g1 int) error {
	s := d.s
	dir := stage - 1
	gv := g1 - g0
	// Section regions may alternate between the two directions' slabs when
	// buffers are shared; aliasing is only meaningful within one stage
	// (with the sanitizer off this is a nil check).
	d.g.ResetBindings()

	// Pending unpack work, spawned only after all pack tasks: packers
	// must depend solely on the previous stage's sweeps, never on this
	// stage's arrivals, or two ranks exchanging edges would wait on each
	// other.
	unpacks := d.unpacks[:0]

	// Receives: one task per incoming message; its completion is bound
	// to the MPI request, so unpackers run only once the data arrived.
	for pi := range s.plans[dir].RecvPlans {
		pl := &s.plans[dir].RecvPlans[pi]
		buf := s.plans[dir].RecvBuf(pi)[:pl.Cells*gv]
		secs := d.regs[:0]
		for i, sg := range pl.Segs {
			sec, key := s.segBuf(dir, buf, i), section(pl, i)
			secs = append(secs, key)
			d.g.BindSection(key, sec)
			unpacks = append(unpacks, args{dir: dir, sg: sg, sec: sec, key: key})
		}
		d.regs = secs
		d.g.Spawn("recv", d.g.RecvBody(driver.Message{
			Sec: pl.Sec, Secs: len(pl.Segs), Peer: pl.Peer, Tag: pl.Tag,
			Buf: buf, Blocking: s.cfg.BlockingTAMPI,
		}), d.g.Out(secs...)...)
	}

	// Sends: the message buffer is a fresh arena lease; pack tasks per
	// segment write their section of it, one send task per message
	// depends on all the sections and transfers the lease to the MPI
	// layer (the receiving rank returns it to the arena).
	for pi := range s.plans[dir].SendPlans {
		pl := &s.plans[dir].SendPlans[pi]
		lease := s.arena.LeaseFloat64(pl.Cells * gv)
		buf := lease.Float64()
		secs := d.regs[:0]
		for i, sg := range pl.Segs {
			pj := args{dir: dir, sg: sg, sec: s.segBuf(dir, buf, i), key: section(pl, i)}
			secs = append(secs, pj.key)
			d.g.Spawn("pack", d.packJobs.Body(pj), d.g.Merge(
				d.g.In(d.tile(regInterior, sg.Tile)),
				d.g.Out(pj.key),
			)...)
		}
		d.regs = secs
		d.g.Spawn("send", d.g.SendBody(driver.Message{
			Sec: pl.Sec, Secs: len(pl.Segs), Peer: pl.Peer, Tag: pl.Tag,
			Lease: lease, Blocking: s.cfg.BlockingTAMPI,
		}), d.g.In(secs...)...)
	}

	// Same-rank copies: edge exchange tasks between neighbouring tiles.
	for _, lc := range s.locals[dir] {
		d.g.Spawn("local-copy", d.copyJobs.Body(args{dir: dir, lc: lc}), d.g.Merge(
			d.g.In(d.tile(regInterior, lc.src)),
			d.g.InOut(d.tile(regHalo, lc.dst)),
		)...)
	}

	// Unpackers: consume the receive's buffer sections into tile ghosts
	// once the bound requests complete.
	for _, uj := range unpacks {
		d.g.Spawn("unpack", d.unpackJobs.Body(uj), d.g.Merge(
			d.g.In(uj.key),
			d.g.InOut(d.tile(regHalo, uj.sg.Tile)),
		)...)
	}
	d.unpacks = unpacks
	return d.g.X.Err()
}

// pack is a pack task: one tile edge into its section of a message.
func (d *dfDriver) pack(t *task.Task, a *args) {
	s := d.s
	d.g.NoteRead(t, d.tile(regInterior, a.sg.Tile))
	d.g.NoteWrite(t, a.key)
	s.rec.Span(s.rank, t.Worker(), "pack", func() { s.packSeg(a.dir, a.sg, a.sec) })
}

// unpack is an unpack task: one received section into a tile's ghosts.
func (d *dfDriver) unpack(t *task.Task, a *args) {
	s := d.s
	d.g.NoteRead(t, a.key)
	d.g.NoteWrite(t, d.tile(regHalo, a.sg.Tile))
	s.rec.Span(s.rank, t.Worker(), "unpack", func() { s.unpackSeg(a.dir, a.sg, a.sec) })
}

// copyEdge is a local copy task: one tile's interior edge into its
// neighbour's ghosts.
func (d *dfDriver) copyEdge(t *task.Task, a *args) {
	s := d.s
	d.g.NoteRead(t, d.tile(regInterior, a.lc.src))
	d.g.NoteWrite(t, d.tile(regHalo, a.lc.dst))
	s.rec.Span(s.rank, t.Worker(), "local-copy", func() { s.copyLocal(a.dir, a.lc) })
}

// Compute spawns one sweep task per tile. A sweep reads the ghosts and
// updates only interior cells, so it is in on the halo and in-out on the
// interior: it follows the ghost fills, and the next stage's fills of the
// same halo wait only for it to have read them.
func (d *dfDriver) Compute(stage, g0, g1 int) error {
	s := d.s
	dir := stage - 1
	for _, t := range s.tiles {
		d.g.Spawn("sweep", d.sweepJobs.Body(args{t: t, dir: dir, u: s.data[t]}),
			d.g.Merge(d.g.In(d.tile(regHalo, t)), d.g.InOut(d.tile(regInterior, t)))...)
		s.flops += s.sweepFlops(dir)
	}
	return nil
}

// sweep is a sweep task: one directional update of a tile.
func (d *dfDriver) sweep(tk *task.Task, a *args) {
	s := d.s
	d.g.NoteRead(tk, d.tile(regHalo, a.t))
	d.g.NoteWrite(tk, d.tile(regInterior, a.t))
	s.rec.Span(s.rank, tk.Worker(), "sweep", func() {
		s.sweep(a.dir, a.u, d.g.Scratch(tk.Worker()))
	})
}

// Checksum spawns per-tile reduction tasks into sum slots, closes them
// with a taskwait with dependencies, and validates the global reduction
// on the main goroutine.
func (d *dfDriver) Checksum(int) error {
	s := d.s
	sums := d.regs[:0]
	for i, t := range s.tiles {
		slot := s.arena.GetFloat64(hydroVars) // tileSums overwrites it
		d.sumSlots[i] = slot
		sum := d.tile(regSum, t)
		sums = append(sums, sum)
		d.g.Spawn("cksum-local", d.sumJobs.Body(args{t: t, u: s.data[t], slot: slot}),
			d.g.Merge(d.g.In(d.tile(regInterior, t)), d.g.Out(sum))...)
	}
	d.regs = sums
	d.g.WaitKeys(sums...)
	if err := d.g.X.Err(); err != nil {
		return err
	}
	local := driver.CombineSums(s.arena, hydroVars, d.sumSlots)
	for _, slot := range d.sumSlots {
		s.arena.PutFloat64(slot)
	}
	return s.reduceAndValidate(local)
}

// sumTile is a local checksum task: the tile's sums into its slot.
func (d *dfDriver) sumTile(tk *task.Task, a *args) {
	s := d.s
	d.g.NoteRead(tk, d.tile(regInterior, a.t))
	d.g.NoteWrite(tk, d.tile(regSum, a.t))
	s.rec.Span(s.rank, tk.Worker(), "cksum-local", func() { s.tileSums(a.u, a.slot) })
}

// Quiesce closes the parallelism (an explicit taskwait).
func (d *dfDriver) Quiesce() error {
	d.g.Wait()
	return d.g.X.Err()
}

func (d *dfDriver) Refine(bool) (bool, error) { return false, nil }

// Drain completes the run: wait out the graph and surface any deferred
// communication error.
func (d *dfDriver) Drain() error {
	d.g.Wait()
	return d.g.X.Err()
}
