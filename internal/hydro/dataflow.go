package hydro

import (
	"fmt"
	"time"

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
	unpacks []unpackJob
	regs    []task.Region

	// The first handles of the per-tile region tables (see tile, wave, sum),
	// reserved once, like the message sections: the tile set never changes.
	tiles, waves, sums task.Region
	// waveVals and sumSlots are the per-tile slots the CFL scan and the
	// checksum fill, in the order of state.tiles, reused across stages.
	waveVals []float64
	sumSlots [][]float64
}

// reserve binds the driver to its engine and reserves the rank's dependency
// regions on it.
func (d *dfDriver) reserve(g *driver.GraphEngine) {
	s, n := d.s, len(d.s.tiles)
	d.g, d.waveVals, d.sumSlots = g, make([]float64, n), make([][]float64, n)
	d.tiles = g.Reserve(3 * n)
	d.waves, d.sums = d.tiles+task.Region(n), d.tiles+task.Region(2*n)
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

// unpackJob is one received segment waiting for its unpack task: the
// section of the receive buffer it reads and that section's region.
type unpackJob struct {
	sg  seg
	sec []float64
	key task.Region
}

// tile is tile t's conserved state; it persists across timesteps, chaining
// unpack -> sweep -> pack across stages. A rank's tiles are a contiguous
// range of ids.
//
//amr:hot allocs=0
func (d *dfDriver) tile(t int) task.Region { return d.tiles + task.Region(t-d.s.tiles[0]) }

// wave is tile t's CFL wave-speed contribution slot, written once per
// timestep and drained by the reduction's taskwait.
//
//amr:hot allocs=0
func (d *dfDriver) wave(t int) task.Region { return d.waves + task.Region(t-d.s.tiles[0]) }

// sum is tile t's checksum accumulator slot, written once per checksum
// stage and drained by the validation's taskwait.
//
//amr:hot allocs=0
func (d *dfDriver) sum(t int) task.Region { return d.sums + task.Region(t-d.s.tiles[0]) }

// section is segment idx's section of the buffer of message pl. Sections
// are per-stage: produced, consumed once, recycled.
//
//amr:hot allocs=0
func section(pl *driver.Plan[seg], idx int) task.Region { return pl.Sec + task.Region(idx) }

// describe names a region in words for the sanitizer's reports.
func (d *dfDriver) describe(r task.Region) string {
	s, n := d.s, len(d.s.tiles)
	if i := int(r) - int(d.tiles); i >= 0 && i < 3*n {
		return fmt.Sprintf("%s %d", [3]string{"tile", "wave", "sum"}[i/n], s.tiles[i%n])
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
		u := s.data[t]
		tile, wave := d.tile(t), d.wave(t)
		waves = append(waves, wave)
		d.g.Spawn("cfl-scan", func(tk *task.Task) {
			d.g.NoteRead(tk, tile)
			d.g.NoteWrite(tk, wave)
			s.rec.Span(s.rank, tk.Worker(), "cfl-scan", func() {
				d.waveVals[i] = s.maxWave(u)
			})
		}, d.g.Merge(d.g.In(tile), d.g.Out(wave))...)
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
		peer, tag, segs := pl.Peer, pl.Tag, pl.Segs
		buf := s.plans[dir].RecvBuf(pi)[:pl.Cells*gv]
		secs := d.regs[:0]
		for i, sg := range segs {
			sec, key := s.segBuf(dir, buf, i), section(pl, i)
			secs = append(secs, key)
			d.g.BindSection(key, sec)
			unpacks = append(unpacks, unpackJob{sg: sg, sec: sec, key: key})
		}
		d.regs = secs
		d.g.Spawn("recv", func(t *task.Task) {
			for i := range segs {
				d.g.NoteWrite(t, section(pl, i)) // the arriving message fills every section
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
	}

	// Sends: the message buffer is a fresh arena lease; pack tasks per
	// segment write their section of it, one send task per message
	// depends on all the sections and transfers the lease to the MPI
	// layer (the receiving rank returns it to the arena).
	for pi := range s.plans[dir].SendPlans {
		pl := &s.plans[dir].SendPlans[pi]
		peer, tag, segs := pl.Peer, pl.Tag, pl.Segs
		lease := s.arena.LeaseFloat64(pl.Cells * gv)
		buf := lease.Float64()
		secs := d.regs[:0]
		for i, sg := range segs {
			sec := s.segBuf(dir, buf, i)
			secKey, tile := section(pl, i), d.tile(sg.Tile)
			secs = append(secs, secKey)
			d.g.Spawn("pack", func(t *task.Task) {
				d.g.NoteRead(t, tile)
				d.g.NoteWrite(t, secKey)
				s.rec.Span(s.rank, t.Worker(), "pack", func() {
					s.packSeg(dir, sg, sec)
				})
			}, d.g.Merge(
				d.g.In(tile),
				d.g.Out(secKey),
			)...)
		}
		d.regs = secs
		d.g.Spawn("send", func(t *task.Task) {
			for i := range segs {
				d.g.NoteRead(t, section(pl, i)) // the send serialises every packed section
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

	// Same-rank copies: edge exchange tasks between neighbouring tiles.
	for _, lc := range s.locals[dir] {
		src, dst := d.tile(lc.src), d.tile(lc.dst)
		d.g.Spawn("local-copy", func(t *task.Task) {
			d.g.NoteRead(t, src)
			d.g.NoteWrite(t, dst)
			s.rec.Span(s.rank, t.Worker(), "local-copy", func() {
				s.copyLocal(dir, lc)
			})
		}, d.g.Merge(
			d.g.In(src),
			d.g.InOut(dst),
		)...)
	}

	// Unpackers: consume the receive's buffer sections into tile ghosts
	// once the bound requests complete.
	for _, uj := range unpacks {
		tile := d.tile(uj.sg.Tile)
		d.g.Spawn("unpack", func(t *task.Task) {
			d.g.NoteRead(t, uj.key)
			d.g.NoteWrite(t, tile)
			s.rec.Span(s.rank, t.Worker(), "unpack", func() {
				s.unpackSeg(dir, uj.sg, uj.sec)
			})
		}, d.g.Merge(
			d.g.In(uj.key),
			d.g.InOut(tile),
		)...)
	}
	d.unpacks = unpacks
	return d.g.X.Err()
}

// Compute spawns one sweep task per tile, depending in-out on the tile so
// it naturally follows the ghost fills.
func (d *dfDriver) Compute(stage, g0, g1 int) error {
	s := d.s
	dir := stage - 1
	for _, t := range s.tiles {
		u := s.data[t]
		tile := d.tile(t)
		d.g.Spawn("sweep", func(tk *task.Task) {
			d.g.NoteWrite(tk, tile)
			s.rec.Span(s.rank, tk.Worker(), "sweep", func() {
				s.sweep(dir, u, d.g.Scratch(tk.Worker()))
			})
		}, d.g.InOut(tile)...)
		s.flops += s.sweepFlops(dir)
	}
	return nil
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
		u := s.data[t]
		tile, sum := d.tile(t), d.sum(t)
		sums = append(sums, sum)
		d.g.Spawn("cksum-local", func(tk *task.Task) {
			d.g.NoteRead(tk, tile)
			d.g.NoteWrite(tk, sum)
			s.rec.Span(s.rank, tk.Worker(), "cksum-local", func() {
				s.tileSums(u, slot)
			})
		}, d.g.Merge(d.g.In(tile), d.g.Out(sum))...)
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
