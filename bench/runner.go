package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"miniamr/internal/harness"
	"miniamr/internal/task"
	"miniamr/internal/trace"
)

// options are the knobs of one invocation.
type options struct {
	seed    uint64
	seconds float64 // how long the timed rounds of one workload measure
	smoke   bool    // one round, reduced sizes: the test suite's mode
}

// result is what one workload reports.
type result struct {
	Workload  string    `json:"workload"`
	Rounds    int       `json:"rounds"`
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Failures  []string  `json:"failures,omitempty"`
	Metrics   metricSet `json:"metrics"`
}

// runner drives one workload: a closed loop, one run at a time.
type runner struct {
	w    *workload
	opt  options
	mk   jobMaker
	orc  *oracle
	tr   *tracer
	span int // the workload's span

	host *hostReference
}

func newRunner(w *workload, opt options, tr *tracer, parent int) *runner {
	return &runner{
		w: w, opt: opt, mk: w.job(opt.seed, opt.smoke),
		orc: newOracle(w.name), tr: tr, span: tr.begin(parent, w.name),
		host: newHostReference(),
	}
}

// sample is one completed run.
type sample struct {
	ok   bool    // ran and passed every output check
	wall float64 // seconds around harness.Run
	ref  float64 // seconds the host reference took right after the run (timed rounds only)
	m    harness.Metrics
}

// total is the application's timed region, maximum over ranks: what the
// paper's tables report.
func (s sample) total() float64 { return s.m.Total.Seconds() }

// overhead is everything harness.Run does around the timed region: world
// and transport build, process spawn and rendezvous, teardown, audits.
func (s sample) overhead() float64 { return s.wall - s.total() }

func (r *runner) run(parent int, variant string, tcp bool, name string, spec harness.RunSpec) sample {
	runtime.GC() // every run starts from the same small heap
	id := r.tr.begin(parent, name+" "+variant)
	start := time.Now()
	m, err := harness.Run(spec)
	wall := time.Since(start)
	r.tr.end(id)
	if err != nil {
		r.orc.errored(variant, name, err)
		return sample{}
	}
	return sample{ok: r.orc.check(variant, tcp, name, m), wall: wall.Seconds(), m: m}
}

// round holds one run of each variant (indexed like variants) and the
// set-up the round paid.
type round struct {
	s     [3]sample
	setup float64 // input generation + every run's overhead, seconds
}

func (rd round) ok() bool { return rd.s[0].ok && rd.s[1].ok && rd.s[2].ok }

// rounds makes one untimed warm-up run per variant, then timed rounds
// until the budget is spent (and at least minRounds). Each round builds
// its inputs afresh and runs the three variants once, in an order rotated
// by round so that no variant always follows the same neighbour. Right
// after each run the host reference is sampled: the yardstick the run's
// time is expressed in.
func (r *runner) rounds(budget time.Duration, minRounds int) []round {
	tcp := r.w.tcp
	for _, v := range variants {
		r.run(r.span, variantKey(v), tcp, "warm-up", r.w.spec(r.mk, v, r.w.primaryProcs(), nil))
	}
	var out []round
	start := time.Now()
	for n := 0; n < minRounds || time.Since(start) < budget; n++ {
		name := fmt.Sprintf("round %d", n)
		id := r.tr.begin(r.span, name)
		var rd round
		var mk jobMaker
		rd.setup = timed(func() { mk = r.w.job(r.opt.seed, r.opt.smoke) }).Seconds()
		for k := range variants {
			i := (k + n) % len(variants)
			v := variants[i]
			rd.s[i] = r.run(id, variantKey(v), tcp, name, r.w.spec(mk, v, r.w.primaryProcs(), nil))
			if rd.s[i].ok {
				rd.setup += rd.s[i].overhead()
			}
			rd.s[i].ref = r.host.sample().Seconds()
		}
		r.tr.end(id)
		out = append(out, rd)
	}
	return out
}

// series extracts one number per round for a variant.
func series(rs []round, variant int, f func(sample) float64) []float64 {
	xs := make([]float64, len(rs))
	for n, rd := range rs {
		xs[n] = f(rd.s[variant])
	}
	return xs
}

const (
	iMPIOnly = iota
	iForkJoin
	iDataFlow
)

// cleanRounds keeps the rounds in which every run passed its checks; only
// those are measured.
func cleanRounds(rs []round) []round {
	var clean []round
	for _, rd := range rs {
		if rd.ok() {
			clean = append(clean, rd)
		}
	}
	return clean
}

// endToEnd reduces the timed rounds to the end-to-end metrics.
func endToEnd(rs []round, out metricSet) {
	var setup []float64
	for _, rd := range rs {
		setup = append(setup, rd.setup)
	}
	out.setMedian("setup_s", "s", setup)
	var walls [3][]float64
	for i, v := range variants {
		walls[i] = series(rs, i, sample.total)
		out.setMedian(variantKey(v)+"_wall_norm", "ref", series(rs, i, func(s sample) float64 {
			return s.total() / s.ref
		}))
	}
	out.setMedian("dataflow_vs_mpionly", "x", pairedRatios(walls[iMPIOnly], walls[iDataFlow]))
	out.setMedian("dataflow_vs_forkjoin", "x", pairedRatios(walls[iForkJoin], walls[iDataFlow]))
	out.setMedian("dataflow_allocs_per_task", "count", series(rs, iDataFlow, func(s sample) float64 {
		return float64(s.m.HeapAllocs) / float64(s.m.Tasks)
	}))
	out.setMedian("dataflow_arena_hit_rate", "fraction", series(rs, iDataFlow, func(s sample) float64 {
		return s.m.Arena.HitRate()
	}))
}

// widthObserver hands every rank of a traced data-flow run its own
// task.WidthMeter and keeps them for the ready-set high-water mark.
type widthObserver struct {
	mu     sync.Mutex
	meters []*task.WidthMeter
}

func (o *widthObserver) forRank(int) task.Observer {
	m := task.NewWidthMeter()
	o.mu.Lock()
	o.meters = append(o.meters, m)
	o.mu.Unlock()
	return m
}

func (o *widthObserver) highWater() int {
	hw := 0
	for _, m := range o.meters {
		hw = max(hw, m.HighWater())
	}
	return hw
}

// perLayer adds the per-workload layer metrics: counters of the timed
// (untraced) rounds, the serial baseline, the run on the other transport,
// one traced run per variant, and the counts x unit costs models. unit
// holds the micro-suite's results.
func (r *runner) perLayer(rs []round, unit, out metricSet) error {
	for name, m := range unit {
		out[name] = m
	}
	var refs []float64
	for i := range variants {
		refs = append(refs, series(rs, i, func(s sample) float64 { return s.ref })...)
	}
	out.set("host.ref_sample_ms", minOf(refs)*1e3, "ms")
	out.set("host.noise_ratio", summarize(refs).Q3/minOf(refs), "x")

	repeats := 3
	if r.opt.smoke {
		repeats = 1
	}
	cores := float64(runtime.GOMAXPROCS(0))

	// The plain single-threaded run of the same problem. It is also how
	// the unexported hydro kernels are timed from outside.
	var serial []float64
	for k := 0; k < repeats; k++ {
		if s := r.run(r.span, serialKey, false, "serial", r.w.serialSpec(r.mk)); s.ok {
			serial = append(serial, s.total())
		}
	}
	if len(serial) == 0 {
		return errors.New("the serial baseline failed")
	}
	out.setMin("serial.wall_s", "s", serial)

	// Unit costs of a message on this workload's transport, for the
	// model: half a ping-pong, and the slope between the two sizes.
	latency := unit["mpi.pingpong_1_ns"].Value / 2
	big := unit["mpi.pingpong_16k_ns"].Value / 2
	if r.w.tcp {
		latency = unit["wire.tcp_pingpong_1_us"].Value * 1e3 / 2
		big = unit["wire.tcp_pingpong_16k_us"].Value * 1e3 / 2
	}
	perByte := (big - latency) / (16384 * 8)

	var spawn []float64
	for i, v := range variants {
		key := variantKey(v)
		// The work counters repeat exactly between rounds (the oracle
		// checks that), so any round has them.
		last := rs[0].s[i].m
		walls := series(rs, i, sample.total)
		wall := minOf(walls)
		out.setMin(key+".wall_s", "s", walls)
		out.set(key+".gflops", float64(last.Flops)/wall/1e9, "gflop/s")
		out.set(key+".refine_s", minOf(series(rs, i, func(s sample) float64 { return s.m.Refine.Seconds() })), "s")
		out.set(key+".messages", float64(last.Messages), "count")
		out.set(key+".comm_bytes", float64(last.CommBytes), "bytes")
		out.set(key+".arena_gets", median(series(rs, i, func(s sample) float64 { return float64(s.m.Arena.Gets) })), "count")
		out.set(key+".arena_hit_rate", median(series(rs, i, func(s sample) float64 { return s.m.Arena.HitRate() })), "fraction")
		out.set(key+".heap_allocs", median(series(rs, i, func(s sample) float64 { return float64(s.m.HeapAllocs) })), "count")
		out.set(key+".par_eff", minOf(serial)/(cores*wall), "fraction")
		out.set(key+".model_comm_share",
			(float64(last.Messages)*latency+float64(last.CommBytes)*perByte)*1e-9/(cores*wall), "fraction")

		// The other transport, untraced, in pairs with runs on the timed
		// rounds' transport, so that each ratio compares neighbours in time.
		var inproc, ratios []float64
		for k := 0; k < repeats; k++ {
			p := r.run(r.span, key, r.w.tcp, "pair", r.w.spec(r.mk, v, r.w.primaryProcs(), nil))
			q := r.run(r.span, key, !r.w.tcp, "twin", r.w.spec(r.mk, v, r.w.twinProcs(), nil))
			if !p.ok || !q.ok {
				return fmt.Errorf("%s run on the other transport failed", key)
			}
			if r.w.tcp {
				p, q = q, p
			}
			// p ran in process, q over TCP.
			inproc = append(inproc, p.total())
			ratios = append(ratios, q.total()/p.total())
			spawn = append(spawn, q.overhead())
		}
		out.set(key+".tcp_vs_inproc", median(ratios), "x")

		if err := r.traced(v, minOf(inproc), out); err != nil {
			return err
		}
		if v == harness.DataFlow {
			out.set("dataflow.tasks", float64(last.Tasks), "count")
			out.set("dataflow.model_runtime_share",
				float64(last.Tasks)*unit["task.spawn_chain_ns"].Value*1e-9/(cores*wall), "fraction")
		}
	}
	out.setMedian("harness.spawn_s", "s", spawn)
	return nil
}

// traced makes the traced run of one variant: in process (Procs > 1
// rejects a Recorder), with the applications' own recorder and, for
// data-flow, a width meter per rank. No timed run had either attached.
// untraced is the best untraced in-process run time.
func (r *runner) traced(v harness.Variant, untraced float64, out metricSet) error {
	key := variantKey(v)
	rec := trace.NewRecorder()
	var obs *widthObserver
	if v == harness.DataFlow {
		obs = &widthObserver{}
	}
	spec := r.w.spec(r.mk, v, 0, obs)
	spec.Recorder = rec
	s := r.run(r.span, key, false, "traced", spec)
	if !s.ok {
		return fmt.Errorf("traced %s run failed", key)
	}
	st := trace.ComputeStats(rec.Events())
	lt := foldLabels(st.ByLabel)
	out.set(key+".trace.kernel_s", lt.kernel.Seconds(), "s")
	out.set(key+".trace.pack_s", lt.pack.Seconds(), "s")
	out.set(key+".trace.wait_s", lt.wait.Seconds(), "s")
	out.set(key+".trace.other_s", lt.other.Seconds(), "s")
	out.set(key+".trace.idle_s", (time.Duration(st.Lanes)*st.Span - st.Busy).Seconds(), "s")
	out.set(key+".trace.overlap_s", st.OverlapTime.Seconds(), "s")
	out.set(key+".trace.utilization", st.Utilization, "fraction")
	out.set(key+".trace.overhead", s.total()/untraced, "x")
	if obs != nil {
		out.set("dataflow.ready_highwater", float64(obs.highWater()), "count")
	}
	return nil
}

// finish closes the workload's span and packages the result.
func (r *runner) finish(rs []round, metrics metricSet) result {
	r.tr.end(r.span)
	return result{
		Workload: r.w.name, Rounds: len(rs),
		Correct:   r.orc.failed == 0,
		Attempted: r.orc.attempted, Failed: r.orc.failed, Failures: r.orc.failures,
		Metrics: metrics,
	}
}
