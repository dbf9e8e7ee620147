package hydro

import (
	"miniamr/internal/driver"
	"miniamr/internal/membuf"
)

// loopDriver is the stage set of both loop-parallel variants: sweeps,
// packing, unpacking, local copies and checksum reductions run in parallel
// regions while all MPI communication stays on the master thread. MPI-only
// is this driver on one worker per rank (the regions then run inline), as
// the reference's MPI+OpenMP build is its MPI code plus pragmas. The master
// sets a region's context in the fields below and forks the region; the
// per-stage path must not allocate at any worker count, so the lists are
// reused across stages and the bodies are bound once.
type loopDriver struct {
	s *state
	// eng owns the workers, the per-worker scratch buffers and arena
	// caches, and the master thread's reused waitset and send list.
	eng *driver.LoopEngine

	dir    int
	waves  []float64       // per-tile maximum wave speeds of the CFL scan
	sums   [][]float64     // per-tile conserved sums of the checksum
	jobs   []segJob        // the pack or unpack region's segments
	leases []*membuf.Lease // the stage's outgoing payloads, by send plan

	scanWaves, packSegs, copyLocals, unpackSegs, sweepTiles, sumTiles func(i, w int)
}

// segJob is one segment of a message with its section of the payload.
type segJob struct {
	sg  seg
	buf []float64
}

func newLoopDriver(s *state, workers int) *loopDriver {
	d := &loopDriver{
		s:     s,
		eng:   driver.NewLoopEngine(s.arena, workers, scratchLen(s.cfg), false),
		waves: make([]float64, len(s.tiles)),
		sums:  make([][]float64, len(s.tiles)),
	}
	d.scanWaves, d.packSegs, d.copyLocals = d.scanWave, d.packSeg, d.copyLocal
	d.unpackSegs, d.sweepTiles, d.sumTiles = d.unpackSeg, d.sweepTile, d.sumTile
	return d
}

// BeginStep scans the owned tiles for the maximum wave speed in one
// region and resolves the CFL timestep on the master. A maximum is
// order-independent, so the fold stays bit-deterministic.
func (d *loopDriver) BeginStep(ts int) error {
	s := d.s
	d.eng.ParFor(len(s.tiles), d.scanWaves)
	wave := 0.0
	for _, wv := range d.waves {
		if wv > wave {
			wave = wv
		}
		s.flops += s.waveFlops()
	}
	return s.reduceWave(wave)
}

func (d *loopDriver) scanWave(i, w int) {
	s := d.s
	s.rec.Span(s.rank, w, "cfl-scan", func() { d.waves[i] = s.maxWave(s.data[s.tiles[i]]) })
}

// addSections appends one job per segment of a message (a flat index
// space across the messages added), each over its section of the payload.
func (d *loopDriver) addSections(segs []seg, buf []float64) {
	for i, sg := range segs {
		d.jobs = append(d.jobs, segJob{sg: sg, buf: d.s.segBuf(d.dir, buf, i)})
	}
}

// Communicate exchanges the stage direction's ghost edges: the master
// posts receives and sends, regions pack, copy and unpack.
func (d *loopDriver) Communicate(stage, g0, g1 int) error {
	s := d.s
	dir := stage - 1
	d.dir = dir
	gv := g1 - g0
	ws := d.eng.Wait()

	ws.Reset()
	for i := range s.plans[dir].RecvPlans {
		pl := &s.plans[dir].RecvPlans[i]
		req, err := s.comm.Irecv(s.plans[dir].RecvBuf(i)[:pl.Cells*gv], pl.Peer, pl.Tag)
		if err != nil {
			return err
		}
		ws.Add(req)
	}

	// Pack every outgoing segment into fresh arena leases in one region,
	// then master sends them with ownership transfer.
	d.jobs, d.leases = d.jobs[:0], d.leases[:0]
	for i := range s.plans[dir].SendPlans {
		pl := &s.plans[dir].SendPlans[i]
		lease := s.arena.LeaseFloat64(pl.Cells * gv)
		d.addSections(pl.Segs, lease.Float64())
		d.leases = append(d.leases, lease)
	}
	d.eng.ParFor(len(d.jobs), d.packSegs)
	for i := range s.plans[dir].SendPlans {
		pl := &s.plans[dir].SendPlans[i]
		req, err := s.comm.IsendOwned(d.leases[i], pl.Peer, pl.Tag)
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

	// Same-rank copies overlap the in-flight transfers: distinct copies
	// write distinct ghost edges, so the region is race-free.
	d.eng.ParFor(len(s.locals[dir]), d.copyLocals)

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
		d.addSections(s.plans[dir].RecvPlans[idx].Segs, s.plans[dir].RecvBuf(idx))
		d.eng.ParFor(len(d.jobs), d.unpackSegs)
	}
	return d.eng.FlushSends()
}

func (d *loopDriver) packSeg(i, w int) {
	s, job := d.s, &d.jobs[i]
	s.rec.Span(s.rank, w, "pack", func() { s.packSeg(d.dir, job.sg, job.buf) })
}

func (d *loopDriver) copyLocal(i, w int) {
	s := d.s
	s.rec.Span(s.rank, w, "local-copy", func() { s.copyLocal(d.dir, s.locals[d.dir][i]) })
}

func (d *loopDriver) unpackSeg(i, w int) {
	s, job := d.s, &d.jobs[i]
	s.rec.Span(s.rank, w, "unpack", func() { s.unpackSeg(d.dir, job.sg, job.buf) })
}

// Compute sweeps the owned tiles in one region; tiles only touch their own
// storage, so it is race-free.
func (d *loopDriver) Compute(stage, g0, g1 int) error {
	s := d.s
	d.dir = stage - 1
	d.eng.ParFor(len(s.tiles), d.sweepTiles)
	for range s.tiles {
		s.flops += s.sweepFlops(d.dir)
	}
	return nil
}

func (d *loopDriver) sweepTile(i, w int) {
	s := d.s
	u := s.data[s.tiles[i]]
	s.rec.Span(s.rank, w, "sweep", func() { s.sweep(d.dir, u, d.eng.Scratch(w)) })
}

// Checksum reduces per-tile sums in one region and combines them in tile
// order on the master.
func (d *loopDriver) Checksum(int) error {
	s := d.s
	d.eng.ParFor(len(s.tiles), d.sumTiles)
	local := driver.CombineSums(s.arena, hydroVars, d.sums)
	for _, out := range d.sums {
		s.arena.PutFloat64(out)
	}
	return s.reduceAndValidate(local)
}

func (d *loopDriver) sumTile(i, w int) {
	s := d.s
	out := d.eng.Cache(w).GetFloat64(hydroVars) // tileSums overwrites it
	s.rec.Span(s.rank, w, "cksum-local", func() { s.tileSums(s.data[s.tiles[i]], out) })
	d.sums[i] = out
}

// Quiesce is a no-op: regions end with an implicit barrier.
func (d *loopDriver) Quiesce() error { return nil }

// Refine is a no-op: HYDRO's mesh is fixed.
func (d *loopDriver) Refine(bool) (bool, error) { return false, nil }

func (d *loopDriver) Drain() error { return nil }
