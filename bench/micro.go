package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"miniamr/internal/amr/grid"
	"miniamr/internal/cluster"
	"miniamr/internal/forkjoin"
	"miniamr/internal/membuf"
	"miniamr/internal/mpi"
	"miniamr/internal/simnet"
	"miniamr/internal/tampi"
	"miniamr/internal/task"
	"miniamr/internal/wire"
)

// The micro-suite measures each module's unit costs from outside, through
// its public functions. Every case reports the minimum over a few samples:
// interference on a small shared host only ever adds time.

// microWorkers is the worker count of the task and fork-join cases: what
// one hybrid rank gets in the end-to-end runs.
const microWorkers = virtualCores / 2

// microCfg sizes the samples.
type microCfg struct {
	samples int
	dur     time.Duration // minimum length of one sample
	smoke   bool          // shrink the Task Bench grid
}

// sink keeps results the compiler could otherwise discard.
var sink float64

func timed(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}

// perOp returns the cost in ns of one operation. op performs n operations
// and returns the time they took; n grows until one sample lasts c.dur.
func (c microCfg) perOp(op func(n int) time.Duration) float64 {
	n := 1
	d := op(n)
	for d < c.dur && n < 1<<28 {
		if d < c.dur/16 {
			n *= 8
		} else {
			n = int(1.3*float64(n)*float64(c.dur)/float64(d)) + 1
		}
		d = op(n)
	}
	best := float64(d) / float64(n)
	for s := 1; s < c.samples; s++ {
		best = math.Min(best, float64(op(n))/float64(n))
	}
	return best
}

// loop adapts a plain operation to perOp.
func loop(f func()) func(n int) time.Duration {
	return func(n int) time.Duration {
		return timed(func() {
			for i := 0; i < n; i++ {
				f()
			}
		})
	}
}

// mallocsPer counts heap objects allocated per operation over n
// operations (a runtime.MemStats.Mallocs delta, like the harness's
// HeapAllocs).
func mallocsPer(n int, f func(n int)) float64 {
	var a, b runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&a)
	f(n)
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n)
}

// microCase is one entry of the suite: it adds its metrics to out.
type microCase struct {
	name string
	run  func(c microCfg, out metricSet) error
}

var microSuite = []microCase{
	{"grid", microGrid},
	{"membuf", microMembuf},
	{"mpi", microMPI},
	{"task", microTask},
	{"taskbench", microTaskBench},
	{"tampi", microTampi},
	{"forkjoin", microForkJoin},
	{"wire", microWire},
	{"wire-tcp", microWireTCP},
}

// ---- grid ----------------------------------------------------------------

func cube(n int) grid.Size { return grid.Size{X: n, Y: n, Z: n} }

// newBlock returns a block with a smooth non-zero field and its ghost
// planes set once. With ghosts left at zero, repeated stencils would decay
// the field into denormal numbers and time the processor's slow path.
func newBlock(edge, vars int) *grid.Data {
	d := grid.MustNewData(cube(edge), vars)
	w := 1 / float64(edge)
	d.Fill([3]float64{}, [3]float64{w, w, w},
		func(v int, x, y, z float64) float64 { return 1 + x + 2*y + 3*z + float64(v) })
	for _, dir := range []grid.Dir{grid.DirX, grid.DirY, grid.DirZ} {
		for _, side := range []grid.Side{grid.Low, grid.High} {
			d.ApplyDomainBoundary(dir, side, 0, vars)
		}
	}
	return d
}

var faces = []struct {
	dir  grid.Dir
	side grid.Side
}{{grid.DirX, grid.Low}, {grid.DirY, grid.High}, {grid.DirZ, grid.Low}}

func microGrid(c microCfg, out metricSet) error {
	const edge, vars = 12, 16
	d := newBlock(edge, vars)
	cells := float64(cube(edge).Cells() * vars)
	out.set("grid.stencil7_ns_per_cell", c.perOp(loop(func() { d.Stencil7(0, vars) }))/cells, "ns")
	small := newBlock(6, 4)
	out.set("grid.stencil7_small_ns_per_cell",
		c.perOp(loop(func() { small.Stencil7(0, 4) }))/float64(cube(6).Cells()*4), "ns")

	// One face per direction: x faces are strided, z faces contiguous.
	buf := make([]float64, d.FaceLen(grid.DirX, 0, vars))
	faceCells := 0.0
	for _, f := range faces {
		faceCells += float64(d.FaceLen(f.dir, 0, vars))
	}
	out.set("grid.pack_face_ns_per_cell", c.perOp(loop(func() {
		for _, f := range faces {
			d.PackFace(f.dir, f.side, 0, vars, buf)
		}
	}))/faceCells, "ns")
	out.set("grid.unpack_face_ns_per_cell", c.perOp(loop(func() {
		for _, f := range faces {
			d.UnpackFace(f.dir, f.side, 0, vars, buf)
		}
	}))/faceCells, "ns")
	out.set("grid.restrict_face_ns_per_cell", c.perOp(loop(func() {
		for _, f := range faces {
			d.PackFaceRestrict(f.dir, f.side, 0, vars, buf)
		}
	}))/faceCells, "ns")
	sums := make([]float64, vars)
	out.set("grid.checksum_ns_per_cell", c.perOp(loop(func() { d.Checksum(0, vars, sums) }))/cells, "ns")
	sink += sums[0] + buf[0]

	var children [8]*grid.Data
	for i := range children {
		children[i] = grid.MustNewData(cube(edge), vars)
	}
	out.set("grid.split_us", c.perOp(loop(func() { d.SplitInto(&children) }))/1e3, "us")
	out.set("grid.consolidate_us", c.perOp(loop(func() { d.ConsolidateFrom(&children) }))/1e3, "us")
	return nil
}

// ---- membuf --------------------------------------------------------------

func microMembuf(c microCfg, out metricSet) error {
	const n = 1024 // floats: an 8 KiB buffer, a 12^2x16-ish face
	a := membuf.New()
	out.set("membuf.get_put_hit_ns", c.perOp(loop(func() { a.PutFloat64(a.GetFloat64(n)) })), "ns")
	// A miss is a Get on empty free lists: a fresh arena per batch, whose
	// buffers are dropped to the collector, never Put.
	out.set("membuf.get_miss_ns", c.perOp(func(ops int) time.Duration {
		var d time.Duration
		for ops > 0 {
			batch := min(ops, 512)
			fresh := membuf.New()
			d += timed(func() {
				for i := 0; i < batch; i++ {
					sink += float64(len(fresh.GetFloat64(n)))
				}
			})
			ops -= batch
		}
		return d
	}), "ns")
	out.set("membuf.lease_cycle_ns", c.perOp(loop(func() {
		l := a.LeaseFloat64(n)
		l.Retain()
		l.Release()
		l.Release()
	})), "ns")
	cache := membuf.NewCache(a)
	out.set("membuf.cache_get_put_ns", c.perOp(loop(func() { cache.PutFloat64(cache.GetFloat64(n)) })), "ns")
	cache.Flush()
	if st := a.Stats(); st.Live != 0 || st.LeasesLive != 0 {
		return fmt.Errorf("membuf micro-suite leaked: %+v", st)
	}
	return nil
}

// ---- mpi (channel transport) ---------------------------------------------

func must(err error) {
	if err != nil {
		panic(err)
	}
}

// onWorld runs body on every rank of a fresh in-process world of the
// given size with a free network, and returns what rank 0's body timed.
func onWorld(ranks int, body func(c *mpi.Comm) time.Duration) (time.Duration, error) {
	w := mpi.NewWorld(cluster.MustNew(1, ranks, 1), simnet.None())
	var d time.Duration
	err := w.Run(func(c *mpi.Comm) {
		if got := body(c); c.Rank() == 0 {
			d = got
		}
	})
	return d, err
}

// firstErr keeps the first error of a case whose operations run inside
// timing loops.
type firstErr struct{ err error }

func (f *firstErr) note(err error) {
	if f.err == nil {
		f.err = err
	}
}

// worldOp adapts a per-rank body to perOp.
func worldOp(ranks int, errs *firstErr, body func(c *mpi.Comm, n int) time.Duration) func(n int) time.Duration {
	return func(n int) time.Duration {
		d, err := onWorld(ranks, func(c *mpi.Comm) time.Duration { return body(c, n) })
		errs.note(err)
		return d
	}
}

func pingPong(c *mpi.Comm, n, floats int) time.Duration {
	buf := make([]float64, floats)
	peer := 1 - c.Rank()
	return timed(func() {
		for i := 0; i < n; i++ {
			if c.Rank() == 0 {
				must(c.Send(buf, peer, 0))
				_, err := c.Recv(buf, peer, 1)
				must(err)
			} else {
				_, err := c.Recv(buf, peer, 0)
				must(err)
				must(c.Send(buf, peer, 1))
			}
		}
	})
}

const queueDepth = 256

func microMPI(c microCfg, out metricSet) error {
	var err firstErr
	out.set("mpi.pingpong_1_ns", c.perOp(worldOp(2, &err, func(cm *mpi.Comm, n int) time.Duration {
		return pingPong(cm, n, 1)
	})), "ns")
	out.set("mpi.pingpong_16k_ns", c.perOp(worldOp(2, &err, func(cm *mpi.Comm, n int) time.Duration {
		return pingPong(cm, n, 16384)
	})), "ns")
	out.set("mpi.pingpong_allocs", mallocsPer(20000, func(n int) {
		_, e := onWorld(2, func(cm *mpi.Comm) time.Duration { return pingPong(cm, n, 1) })
		err.note(e)
	}), "count")

	// A late receiver: the sender fills the unexpected queue with one
	// message per tag, then the receiver drains it in reverse tag order,
	// so every match scans the queue. Rank 0 is the receiver and times
	// only the receives.
	out.set("mpi.unexpected_depth256_ns", c.perOp(worldOp(2, &err, func(cm *mpi.Comm, n int) time.Duration {
		buf := make([]int, 1)
		var d time.Duration
		for batch := 0; batch < n; batch++ {
			if cm.Rank() == 1 {
				for t := 0; t <= queueDepth; t++ {
					must(cm.Send(buf, 0, t))
				}
				continue
			}
			// Tag queueDepth arrives last: after it the queue is full.
			_, e := cm.Recv(buf, 1, queueDepth)
			must(e)
			d += timed(func() {
				for t := queueDepth - 1; t >= 0; t-- {
					_, e := cm.Recv(buf, 1, t)
					must(e)
				}
			})
		}
		return d
	}))/queueDepth, "ns")

	// An early receiver: one receive posted per tag, then the sender
	// matches them in reverse tag order. With a free network a send
	// delivers on the sender's goroutine, so rank 0 sends and times.
	out.set("mpi.posted_depth256_ns", c.perOp(worldOp(2, &err, func(cm *mpi.Comm, n int) time.Duration {
		buf := make([]int, 1)
		var d time.Duration
		reqs := make([]*mpi.Request, queueDepth)
		bufs := make([][]int, queueDepth)
		for i := range bufs {
			bufs[i] = make([]int, 1)
		}
		for batch := 0; batch < n; batch++ {
			if cm.Rank() == 1 {
				for t := range reqs {
					r, e := cm.Irecv(bufs[t], 0, t)
					must(e)
					reqs[t] = r
				}
				must(cm.Send(buf, 0, queueDepth)) // all posted
				must(mpi.Waitall(reqs))
				for _, r := range reqs {
					r.Free()
				}
				continue
			}
			_, e := cm.Recv(buf, 1, queueDepth)
			must(e)
			d += timed(func() {
				for t := queueDepth - 1; t >= 0; t-- {
					must(cm.Send(buf, 1, t))
				}
			})
		}
		return d
	}))/queueDepth, "ns")

	// Waitany over 64 outstanding receives, the MPI-only unpack loop.
	const fan = 64
	out.set("mpi.waitany_64_ns", c.perOp(worldOp(2, &err, func(cm *mpi.Comm, n int) time.Duration {
		buf := make([]int, 1)
		var d time.Duration
		reqs := make([]*mpi.Request, fan)
		bufs := make([][]int, fan)
		for i := range bufs {
			bufs[i] = make([]int, 1)
		}
		for batch := 0; batch < n; batch++ {
			if cm.Rank() == 1 {
				_, e := cm.Recv(buf, 0, fan) // all posted
				must(e)
				for t := 0; t < fan; t++ {
					must(cm.Send(buf, 0, t))
				}
				continue
			}
			for t := range reqs {
				r, e := cm.Irecv(bufs[t], 1, t)
				must(e)
				reqs[t] = r
			}
			must(cm.Send(buf, 1, fan))
			d += timed(func() {
				for k := 0; k < fan; k++ {
					i, _, e := mpi.Waitany(reqs)
					must(e)
					reqs[i].Free()
					reqs[i] = nil
				}
			})
		}
		return d
	}))/fan, "ns")

	collective := func(op func(cm *mpi.Comm)) func(n int) time.Duration {
		return worldOp(virtualCores, &err, func(cm *mpi.Comm, n int) time.Duration {
			return timed(func() {
				for i := 0; i < n; i++ {
					op(cm)
				}
			})
		})
	}
	out.set("mpi.allreduce_4r_us", c.perOp(collective(func(cm *mpi.Comm) {
		_, e := cm.AllreduceFloat64([]float64{float64(cm.Rank())}, mpi.Sum)
		must(e)
	}))/1e3, "us")
	out.set("mpi.barrier_4r_us", c.perOp(collective(func(cm *mpi.Comm) { must(cm.Barrier()) }))/1e3, "us")
	contribution := make([]int, 32) // a refinement epoch's worth of block ids
	out.set("mpi.allgatherv_4r_us", c.perOp(collective(func(cm *mpi.Comm) {
		_, _, e := cm.AllgathervInt(contribution)
		must(e)
	}))/1e3, "us")
	return err.err
}

// ---- task ----------------------------------------------------------------

// spawnOp times n spawns plus the drain of the graph on a fresh runtime.
func spawnOp(spawn func(rt *task.Runtime, i int)) func(n int) time.Duration {
	return func(n int) time.Duration {
		rt := task.MustNewRuntime(task.Options{Workers: microWorkers})
		defer rt.Shutdown()
		return timed(func() {
			for i := 0; i < n; i++ {
				spawn(rt, i)
			}
			rt.Wait()
		})
	}
}

func nop(*task.Task) {}

func microTask(c microCfg, out metricSet) error {
	independent := func(rt *task.Runtime, _ int) { rt.Spawn("t", nop) }
	out.set("task.spawn_independent_ns", c.perOp(spawnOp(independent)), "ns")
	chain := task.InOut("chain")
	out.set("task.spawn_chain_ns", c.perOp(spawnOp(func(rt *task.Runtime, _ int) {
		rt.Spawn("t", nop, chain...)
	})), "ns")
	// One writer releasing eight readers; the cost is per task.
	w, r := task.Out("k"), task.In("k")
	out.set("task.spawn_fanout_ns", c.perOp(spawnOp(func(rt *task.Runtime, i int) {
		if i%9 == 0 {
			rt.Spawn("w", nop, w...)
		} else {
			rt.Spawn("r", nop, r...)
		}
	})), "ns")
	keys := make([]any, 16)
	for i := range keys {
		keys[i] = i
	}
	wide := task.In(keys...)
	out.set("task.multidep_ns", c.perOp(spawnOp(func(rt *task.Runtime, _ int) {
		rt.Spawn("t", nop, wide...)
	})), "ns")
	out.set("task.external_event_ns", c.perOp(spawnOp(func(rt *task.Runtime, _ int) {
		rt.Spawn("t", func(t *task.Task) {
			t.AddEvents(1)
			t.CompleteEvent()
		})
	})), "ns")
	out.set("task.allocs_per_spawn", mallocsPer(50000, func(n int) { spawnOp(independent)(n) }), "count")
	return nil
}

// spinKernel is the Task Bench compute kernel: a dependent floating-point
// chain the compiler cannot shorten, so its time is proportional to iters.
func spinKernel(iters int) float64 {
	x := 1.0
	for i := 0; i < iters; i++ {
		x = x*1.0000001 + 1e-9
	}
	return x
}

// taskBenchWidth is the number of task columns: four per worker, enough
// that a stencil or tree step never starves a worker for lack of width.
const taskBenchWidth = 4 * microWorkers

// taskBenchPatterns are the dependency patterns of the grid: for column i
// of step t, the columns of step t-1 it reads.
var taskBenchPatterns = []struct {
	name string
	deps func(i int) []int
}{
	{"trivial", func(int) []int { return nil }},
	{"stencil", func(i int) []int {
		w := taskBenchWidth
		return []int{(i + w - 1) % w, i, (i + 1) % w}
	}},
	{"tree", func(i int) []int { return []int{i / 2} }},
	{"alltoall", func(int) []int {
		all := make([]int, taskBenchWidth)
		for j := range all {
			all[j] = j
		}
		return all
	}},
}

// microTaskBench runs a Task Bench grid over internal/task (Slaughter et
// al.; the Lahnor et al. study in PAPERS.md uses the same method):
// dependency pattern x task grain, efficiency = ideal time / measured
// time, reduced per pattern to METG(50 %).
func microTaskBench(c microCfg, out metricSet) error {
	// Calibrate the kernel: ns per iteration, single-threaded.
	nsPerIter := c.perOp(func(n int) time.Duration {
		return timed(func() { sink += spinKernel(n) })
	})
	grains := []float64{1, 2, 4, 8, 16, 32, 64, 128, 256} // us
	if c.smoke {
		grains = []float64{1, 16, 256}
	}
	for _, p := range taskBenchPatterns {
		// Column i writes cell (i, t mod 2) and reads step t-1's cells:
		// double buffering, so the edges are the pattern's plus the
		// write-after-read ones any double-buffered code has.
		var cells [2][taskBenchWidth]any
		for par := range cells {
			for i := range cells[par] {
				cells[par][i] = par*taskBenchWidth + i
			}
		}
		var accs [2][taskBenchWidth][]task.Access
		for par := range accs {
			for i := range accs[par] {
				reads := make([]any, 0, taskBenchWidth)
				for _, j := range p.deps(i) {
					reads = append(reads, cells[1-par][j])
				}
				if len(reads) > 0 { // the trivial pattern declares nothing at all
					accs[par][i] = task.Merge(task.In(reads...), task.Out(cells[par][i]))
				}
			}
		}
		eff := make([]float64, len(grains))
		for gi, g := range grains {
			iters := int(g * 1e3 / nsPerIter)
			body := func(*task.Task) {
				if spinKernel(iters) < 1 { // always false; keeps the kernel alive
					panic("spin kernel lost its value")
				}
			}
			// Enough steps for ~8 ms of ideal time, within bounds that keep
			// the smallest grain measurable and the largest affordable.
			steps := int(8e3 * microWorkers / (g * taskBenchWidth))
			steps = max(8, min(steps, 1500))
			if c.smoke {
				steps = 8
			}
			best := time.Duration(math.MaxInt64)
			for s := 0; s < min(c.samples, 2); s++ {
				rt := task.MustNewRuntime(task.Options{Workers: microWorkers})
				d := timed(func() {
					for t := 0; t < steps; t++ {
						for i := 0; i < taskBenchWidth; i++ {
							rt.Spawn(p.name, body, accs[t%2][i]...)
						}
					}
					rt.Wait()
				})
				rt.Shutdown()
				best = min(best, d)
			}
			// The kernel's own time is what was calibrated, not the
			// nominal grain.
			ideal := float64(steps*taskBenchWidth) * float64(iters) * nsPerIter / microWorkers
			eff[gi] = ideal / float64(best)
		}
		out.set("task.metg50_"+p.name+"_us", metg(grains, eff, 0.5), "us")
	}
	return nil
}

// ---- tampi ---------------------------------------------------------------

func microTampi(c microCfg, out metricSet) error {
	var err firstErr
	// Request completion -> dependent task starts. Rank 0 runs the task
	// graph: task A binds a receive with Iwait and returns; task B reads
	// A's output. A stamp taken in a completion callback registered ahead
	// of TAMPI's marks the request's completion; B's first statement marks
	// the wake. Rank 1 sends once A's body has bound the request.
	out.set("tampi.iwait_wake_us", c.perOp(worldOp(2, &err, func(cm *mpi.Comm, n int) time.Duration {
		buf := make([]float64, 1)
		if cm.Rank() == 1 {
			for i := 0; i < n; i++ {
				_, e := cm.Recv(buf, 0, 1) // A has bound its receive
				must(e)
				must(cm.Send(buf, 0, 0))
			}
			return 0
		}
		rt := task.MustNewRuntime(task.Options{Workers: microWorkers})
		defer rt.Shutdown()
		x := tampi.New(cm)
		var total time.Duration
		var completed time.Time
		msgOut, msgIn := task.Out("msg"), task.In("msg")
		for i := 0; i < n; i++ {
			rt.Spawn("recv", func(t *task.Task) {
				req, e := cm.Irecv(buf, 1, 0)
				must(e)
				req.OnComplete(func() { completed = time.Now() })
				x.Iwait(t, req)
				must(cm.Send(buf, 1, 1))
			}, msgOut...)
			rt.Spawn("use", func(*task.Task) { total += time.Since(completed) }, msgIn...)
			rt.Wait()
		}
		must(x.Err())
		return total
	}))/1e3, "us")

	// Blocking TAMPI: two tasks, one per rank, play ping-pong with
	// Send/Recv that pause the task; half a round trip is one pause,
	// message, resume.
	out.set("tampi.blocking_recv_us", c.perOp(worldOp(2, &err, func(cm *mpi.Comm, n int) time.Duration {
		rt := task.MustNewRuntime(task.Options{Workers: microWorkers})
		defer rt.Shutdown()
		x := tampi.New(cm)
		buf := make([]float64, 1)
		peer := 1 - cm.Rank()
		return timed(func() {
			rt.Spawn("pingpong", func(t *task.Task) {
				for i := 0; i < n; i++ {
					if cm.Rank() == 0 {
						must(x.Send(t, buf, peer, 0))
						_, e := x.Recv(t, buf, peer, 1)
						must(e)
					} else {
						_, e := x.Recv(t, buf, peer, 0)
						must(e)
						must(x.Send(t, buf, peer, 1))
					}
				}
			})
			rt.Wait()
		})
	}))/2e3, "us")

	// Heap objects per bound request: one task per rank binds n sends
	// (rank 0) or n receives (rank 1).
	const requests = 20000
	out.set("tampi.allocs_per_request", mallocsPer(2*requests, func(int) {
		_, e := onWorld(2, func(cm *mpi.Comm) time.Duration {
			rt := task.MustNewRuntime(task.Options{Workers: microWorkers})
			defer rt.Shutdown()
			x := tampi.New(cm)
			buf := make([]float64, 1)
			rt.Spawn("bind", func(t *task.Task) {
				for i := 0; i < requests; i++ {
					if cm.Rank() == 0 {
						must(x.Isend(t, buf, 1, 0))
					} else {
						must(x.Irecv(t, buf, 0, 0))
					}
				}
			})
			rt.Wait()
			must(x.Err())
			return 0
		})
		err.note(e)
	}), "count")
	return err.err
}

// ---- forkjoin ------------------------------------------------------------

func microForkJoin(c microCfg, out metricSet) error {
	p := forkjoin.MustNew(microWorkers)
	defer p.Close()
	out.set("forkjoin.for_empty_us", c.perOp(loop(func() { p.For(microWorkers, func(int) {}) }))/1e3, "us")
	out.set("forkjoin.for_dynamic_empty_us",
		c.perOp(loop(func() { p.ForDynamic(microWorkers, 1, func(int, int) {}) }))/1e3, "us")
	return nil
}

// ---- wire ----------------------------------------------------------------

func microWire(c microCfg, out metricSet) error {
	arena := membuf.New()
	var err firstErr
	note := err.note
	frame := func(floats int) (wire.Header, *membuf.Lease) {
		pay := arena.LeaseFloat64(floats)
		clear(pay.Float64())
		return wire.Header{Type: wire.FrameData, Kind: wire.KindOf(pay), Src: 0, Dst: 1, Tag: 7, NBytes: 8 * floats}, pay
	}
	const big = 128 << 10 / 8 // 128 KiB of float64
	h, pay := frame(big)
	var scratch []byte
	var encoded bytes.Buffer
	note(wire.WriteFrame(&encoded, h, pay, nil, &scratch))
	gbps := func(nsPerFrame float64) float64 { return float64(8*big) / nsPerFrame }
	out.set("wire.encode_gbps", gbps(c.perOp(loop(func() {
		encoded.Reset()
		note(wire.WriteFrame(&encoded, h, pay, nil, &scratch))
	}))), "GB/s")
	rd := bytes.NewReader(nil)
	out.set("wire.decode_gbps", gbps(c.perOp(loop(func() {
		rd.Reset(encoded.Bytes())
		_, got, _, e := wire.ReadFrame(rd, arena)
		note(e)
		if got != nil {
			got.Release()
		}
	}))), "GB/s")
	pay.Release()

	hs, small := frame(1)
	var one bytes.Buffer
	out.set("wire.frame_small_ns", c.perOp(loop(func() {
		one.Reset()
		note(wire.WriteFrame(&one, hs, small, nil, &scratch))
		_, got, _, e := wire.ReadFrame(&one, arena)
		note(e)
		if got != nil {
			got.Release()
		}
	})), "ns")
	small.Release()
	if st := arena.Stats(); st.Live != 0 || st.LeasesLive != 0 {
		note(fmt.Errorf("wire micro-suite leaked: %+v", st))
	}
	return err.err
}

// tcpMesh is two partial worlds of one 2-rank job inside this process,
// meshed over loopback TCP exactly as two harness children would be.
type tcpMesh struct {
	nodes  [2]*wire.Node
	worlds [2]*mpi.World
}

func newTCPMesh() (*tcpMesh, error) {
	m := &tcpMesh{}
	topo := cluster.MustNew(1, 2, 1)
	for i := range m.nodes {
		n, err := wire.Listen("")
		if err != nil {
			return nil, err
		}
		m.nodes[i] = n
	}
	var wg sync.WaitGroup
	var errs [2]error
	for i, n := range m.nodes {
		wg.Add(1)
		go func(i int, n *wire.Node) {
			defer wg.Done()
			errs[i] = n.Bootstrap(i, 2, 2, m.nodes[0].Addr(), 10*time.Second)
		}(i, n)
	}
	wg.Wait()
	if err := errors.Join(errs[:]...); err != nil {
		return nil, err
	}
	for i, n := range m.nodes {
		lo, hi := n.LocalRange()
		w, err := mpi.NewWorldPart(topo, simnet.None(), lo, hi, n)
		if err != nil {
			return nil, err
		}
		n.Start(w, w.Arena())
		m.worlds[i] = w
	}
	return m, nil
}

// run executes body on both ranks and returns what rank 0 timed.
func (m *tcpMesh) run(body func(c *mpi.Comm) time.Duration) (time.Duration, error) {
	var wg sync.WaitGroup
	var errs [2]error
	var d time.Duration
	for i, w := range m.worlds {
		wg.Add(1)
		go func(i int, w *mpi.World) {
			defer wg.Done()
			errs[i] = w.Run(func(c *mpi.Comm) {
				if got := body(c); c.Rank() == 0 {
					d = got
				}
			})
		}(i, w)
	}
	wg.Wait()
	return d, errors.Join(errs[:]...)
}

func (m *tcpMesh) close() error {
	var errs []error
	for _, n := range m.nodes {
		errs = append(errs, n.Close())
	}
	for _, n := range m.nodes {
		errs = append(errs, n.Err())
	}
	return errors.Join(errs...)
}

func microWireTCP(c microCfg, out metricSet) error {
	var err firstErr
	note := err.note
	// Listen + rendezvous + mesh + read loops, then teardown: what a
	// multi-process run pays once, besides spawning its processes.
	out.set("wire.bootstrap_ms", c.perOp(loop(func() {
		m, e := newTCPMesh()
		note(e)
		if m != nil {
			note(m.close())
		}
	}))/1e6, "ms")

	m, e := newTCPMesh()
	if e != nil {
		return e
	}
	onMesh := func(body func(cm *mpi.Comm, n int) time.Duration) func(n int) time.Duration {
		return func(n int) time.Duration {
			d, e := m.run(func(cm *mpi.Comm) time.Duration { return body(cm, n) })
			note(e)
			return d
		}
	}
	out.set("wire.tcp_pingpong_1_us", c.perOp(onMesh(func(cm *mpi.Comm, n int) time.Duration {
		return pingPong(cm, n, 1)
	}))/1e3, "us")
	out.set("wire.tcp_pingpong_16k_us", c.perOp(onMesh(func(cm *mpi.Comm, n int) time.Duration {
		return pingPong(cm, n, 16384)
	}))/1e3, "us")
	const chunk = 128 << 10 / 8
	out.set("wire.tcp_stream_gbps", float64(8*chunk)/c.perOp(onMesh(func(cm *mpi.Comm, n int) time.Duration {
		buf := make([]float64, chunk)
		ack := make([]int, 1)
		return timed(func() {
			if cm.Rank() == 0 {
				for i := 0; i < n; i++ {
					must(cm.Send(buf, 1, 0))
				}
				_, e := cm.Recv(ack, 1, 1)
				must(e)
			} else {
				for i := 0; i < n; i++ {
					_, e := cm.Recv(buf, 0, 0)
					must(e)
				}
				must(cm.Send(ack, 0, 1))
			}
		})
	})), "GB/s")
	note(m.close())
	return err.err
}
