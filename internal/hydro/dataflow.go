package hydro

import (
	"time"

	"miniamr/internal/driver"
	"miniamr/internal/task"
)

// Dependency keys of HYDRO's data-flow taskification. Dependencies are
// declared per tile and per communication buffer section, the same
// granularity the paper uses for miniAMR's blocks.
type (
	// tileKey is one tile's conserved state; it persists across
	// timesteps, chaining unpack -> sweep -> pack across stages.
	//
	//amr:region state
	tileKey struct {
		t int
	}
	// sectKey is one segment's section of a message buffer. dirKey is
	// the direction+1, or 0 when buffer sections share one key space
	// across directions (reproducing the false dependencies that
	// separate buffers remove). Sections are per-stage: produced,
	// consumed once, recycled.
	//
	//amr:region stage match=dirKey,send,idx
	sectKey struct {
		dirKey int
		peer   int
		send   bool
		idx    int
	}
	// waveKey is a tile's CFL wave-speed contribution slot, written once
	// per timestep and drained by the reduction's taskwait.
	//
	//amr:region stage
	waveKey struct {
		t int
	}
	// sumKey is a tile's checksum accumulator slot, written once per
	// checksum stage and drained by the validation's taskwait.
	//
	//amr:region stage
	sumKey struct {
		t int
	}
)

// dfDriver is the paper's hybrid data-flow stage set: every phase is
// taskified, tasks connect through data dependencies, and MPI operations
// are issued from tasks through the task-aware MPI layer.
type dfDriver struct {
	s *state
	// g owns the task runtime, the task-aware MPI context, the per-worker
	// scratch buffers and the sanitizer/trace plumbing.
	g *driver.GraphEngine
	// unpacks is Communicate's list of pending unpack tasks, kept for its
	// storage.
	unpacks []unpackJob
}

// unpackJob is one received segment waiting for its unpack task: the
// section of the receive buffer it reads and that section's boxed key.
type unpackJob struct {
	sg  seg
	sec []float64
	key any
}

// dirKey folds the direction into buffer keys, or collapses both
// directions onto one key space when buffers are shared.
func (d *dfDriver) dirKey(dir int) int {
	if d.s.cfg.SeparateBuffers {
		return dir + 1
	}
	return 0
}

// BeginStep taskifies the CFL scan — one task per tile feeding a
// wave-speed slot — then closes the reduction with a taskwait on the
// slots and the global max on the main goroutine. The taskwait
// transitively drains every tile writer of the previous stage, so the
// following s.dt update never races a sweep.
//
//amr:graph driver=hydro-dataflow phase=timestep seq=1
//amr:par label=cfl-scan axis=tiles
func (d *dfDriver) BeginStep(ts int) error {
	s := d.s
	waves := make([]float64, len(s.tiles))
	keys := make([]any, len(s.tiles))
	for i, t := range s.tiles {
		u := s.data[t]
		// Struct keys are boxed once and shared between the access list,
		// the taskwait and the sanitizer notes.
		tile, wave := any(tileKey{t: t}), any(waveKey{t: t})
		keys[i] = wave
		d.g.Spawn("cfl-scan", func(tk *task.Task) {
			d.g.NoteRead(tk, tile)
			d.g.NoteWrite(tk, wave)
			s.rec.Span(s.rank, tk.Worker(), "cfl-scan", func() {
				waves[i] = s.maxWave(u)
			})
		}, d.g.Merge(d.g.In(tile), d.g.Out(wave))...)
		s.flops += s.waveFlops()
	}
	d.g.WaitKeys(keys...)
	if err := d.g.X.Err(); err != nil {
		return err
	}
	wave := 0.0
	for _, wv := range waves {
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
//
//amr:graph driver=hydro-dataflow phase=communicate seq=2
//amr:par label=recv axis=msgs
//amr:par label=pack axis=segs
//amr:par label=send axis=msgs
//amr:par label=local-copy axis=locals
//amr:par label=unpack axis=msgs
func (d *dfDriver) Communicate(stage, g0, g1 int) error {
	s := d.s
	dir := stage - 1
	gv := g1 - g0
	dk := d.dirKey(dir)
	// Section keys may alternate between the two directions' slabs when
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
		// A message's section keys are the same at every stage: box them
		// once, on first use of the plan.
		secs := pl.Keys
		if secs == nil {
			secs = make([]any, len(segs))
			for i := range segs {
				secs[i] = sectKey{dirKey: dk, peer: peer, idx: i}
			}
			pl.Keys = secs
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

		for i, sg := range segs {
			sec := s.segBuf(dir, buf, i)
			d.g.BindSection(secs[i], sec)
			unpacks = append(unpacks, unpackJob{sg: sg, sec: sec, key: secs[i]})
		}
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
		secs := pl.Keys
		if secs == nil {
			secs = make([]any, len(segs))
			for i := range segs {
				secs[i] = sectKey{dirKey: dk, peer: peer, send: true, idx: i}
			}
			pl.Keys = secs
		}
		for i, sg := range segs {
			sec := s.segBuf(dir, buf, i)
			secKey := secs[i]
			tile := any(tileKey{t: sg.Tile})
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

	// Same-rank copies: edge exchange tasks between neighbouring tiles.
	for _, lc := range s.locals[dir] {
		src, dst := any(tileKey{t: lc.src}), any(tileKey{t: lc.dst})
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
		tile := any(tileKey{t: uj.sg.Tile})
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
//
//amr:graph driver=hydro-dataflow phase=sweep seq=3
//amr:par label=sweep axis=tiles
func (d *dfDriver) Compute(stage, g0, g1 int) error {
	s := d.s
	dir := stage - 1
	for _, t := range s.tiles {
		u := s.data[t]
		tile := any(tileKey{t: t})
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
//
//amr:graph driver=hydro-dataflow phase=checksum seq=4
//amr:par label=cksum-local axis=tiles
func (d *dfDriver) Checksum(int) error {
	s := d.s
	perTile := make(map[int][]float64, len(s.tiles))
	keys := make([]any, len(s.tiles))
	for i, t := range s.tiles {
		slot := s.arena.GetFloat64(hydroVars) // tileSums overwrites it
		perTile[t] = slot
		u := s.data[t]
		tile, sum := any(tileKey{t: t}), any(sumKey{t: t})
		keys[i] = sum
		d.g.Spawn("cksum-local", func(tk *task.Task) {
			d.g.NoteRead(tk, tile)
			d.g.NoteWrite(tk, sum)
			s.rec.Span(s.rank, tk.Worker(), "cksum-local", func() {
				s.tileSums(u, slot)
			})
		}, d.g.Merge(d.g.In(tile), d.g.Out(sum))...)
	}
	d.g.WaitKeys(keys...)
	if err := d.g.X.Err(); err != nil {
		return err
	}
	local := driver.CombineSums(s.arena, hydroVars, s.tiles, perTile)
	for _, t := range s.tiles {
		s.arena.PutFloat64(perTile[t])
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
