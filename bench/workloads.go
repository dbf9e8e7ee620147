package main

import (
	"math"
	"math/rand/v2"

	"miniamr/internal/amr/app"
	"miniamr/internal/driver"
	"miniamr/internal/harness"
	"miniamr/internal/hydro"
	"miniamr/internal/simnet"
)

// The benchmark compares the three variants on the same 4 virtual cores,
// the paper's equal-core comparison at the smallest shape that has both
// inter-rank messages and intra-rank parallelism.
const virtualCores = 4

var variants = []harness.Variant{harness.MPIOnly, harness.ForkJoin, harness.DataFlow}

// variantKey is the metric-name prefix of a variant ("mpionly", ...).
func variantKey(v harness.Variant) string {
	switch v {
	case harness.MPIOnly:
		return "mpionly"
	case harness.ForkJoin:
		return "forkjoin"
	}
	return "dataflow"
}

// workload is one set of inputs the benchmark runs. Its name and reason
// are repeated in BENCHMARK.json (TestSpecMatchesCode keeps them in step).
type workload struct {
	name string
	why  string
	// nodes is the virtual node count: 2 puts the simulated inter-node
	// cost between the halves of the machine.
	nodes int
	net   simnet.Model
	// tcp runs the timed rounds with the ranks split over two OS
	// processes on loopback TCP; the in-process run is then the twin.
	tcp bool
	// job builds the application input from the seed. smoke shrinks it so
	// the test suite can drive the whole runner in seconds.
	job func(seed uint64, smoke bool) jobMaker
}

// jobMaker yields the job for one variant: the data-flow variant gets the
// paper's preferred options, the others the defaults, and a traced run
// attaches its task observer here.
type jobMaker func(v harness.Variant, obs *widthObserver) driver.Job

var workloads = []workload{
	{
		name:  "miniamr-overlap",
		why:   "12^3x16 blocks, 2 nodes with 120us+1GB/s links: kernels plus real waiting, so it shows how well each variant hides communication (the paper's regime)",
		nodes: 2, net: simnet.Default(),
		job: miniamrJob(overlapConfig),
	},
	{
		name:  "miniamr-fine",
		why:   "6^3x4 blocks at level 3, free network: tasks of a few microseconds, so task/tampi/membuf/mpi matching dominate and kernels are a small share",
		nodes: 1, net: simnet.None(),
		job: miniamrJob(fineConfig),
	},
	{
		name:  "miniamr-refine",
		why:   "refinement every timestep with one stage between: split/consolidate, 2:1 balance, RCB, block exchange and Allgatherv dominate, and the arena sees churn across size classes",
		nodes: 1, net: simnet.None(),
		job: miniamrJob(refineConfig),
	},
	{
		name:  "hydro-tcp",
		why:   "second application, regular 16x16 tiles, one Allreduce per step, ranks in 2 OS processes: every inter-process byte goes through the wire codec and a kernel socket",
		nodes: 1, net: simnet.None(), tcp: true,
		job: hydroJob,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// spec is the run of one variant: MPI-only as 4 ranks x 1 core, the
// hybrids as 2 ranks x 2 cores.
func (w *workload) spec(mk jobMaker, v harness.Variant, procs int, obs *widthObserver) harness.RunSpec {
	ranks, cores := virtualCores, 1
	if v != harness.MPIOnly {
		ranks, cores = 2, virtualCores/2
	}
	return harness.RunSpec{
		Nodes: w.nodes, RanksPerNode: ranks / w.nodes, CoresPerRank: cores,
		Net: w.net, Job: mk(v, obs), Variant: v, Procs: procs,
	}
}

// serialSpec is the plain single-threaded baseline of the same problem:
// MPI-only on 1 rank x 1 core, nothing to wait for.
func (w *workload) serialSpec(mk jobMaker) harness.RunSpec {
	return harness.RunSpec{
		Nodes: 1, RanksPerNode: 1, CoresPerRank: 1,
		Net: simnet.None(), Job: mk(harness.MPIOnly, nil), Variant: harness.MPIOnly,
	}
}

// primaryProcs and twinProcs select the transport of the timed rounds and
// of the comparison run on the other transport.
func (w *workload) primaryProcs() int {
	if w.tcp {
		return 2
	}
	return 0
}

func (w *workload) twinProcs() int { return 2 - w.primaryProcs() }

// seedJitter is the relative amplitude by which the seed perturbs the
// miniAMR objects. It is deliberately small: the driver measures the
// spread of every metric across seeds, and a sphere that moves far enough
// to refine one more root block changes the work by 9 % and the message
// count by 20 % (measured with +-10 %: flops 293-341 M, messages
// 1820-2760 on miniamr-fine). At 0.1 % every seed has its own inputs and
// the refined mesh, hence the work, is the same.
const seedJitter = 1e-3

func newRand(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
}

func jitter(r *rand.Rand, x, amp float64) float64 {
	return x * (1 + amp*(2*r.Float64()-1))
}

var root = [3]int{2, 2, 1}

// overlapConfig is the Table I input with the paper's cadence: one big
// sphere entering from a lower corner, refinement every 5 timesteps,
// checksum every 10 stages.
func overlapConfig(smoke bool) app.Config {
	if smoke {
		return harness.SingleSphere(root, harness.Scale{BlockCells: 6, Vars: 4, Timesteps: 2, StagesPerTimestep: 4, MaxLevel: 1})
	}
	return harness.SingleSphere(root, harness.Scale{BlockCells: 12, Vars: 16, Timesteps: 12, StagesPerTimestep: 10, MaxLevel: 2})
}

// fineConfig is the four-spheres scaling input on small blocks; at 4
// timesteps the harness refines every 2.
func fineConfig(smoke bool) app.Config {
	if smoke {
		return harness.FourSpheres(root, harness.Scale{BlockCells: 6, Vars: 4, Timesteps: 2, StagesPerTimestep: 4, MaxLevel: 2})
	}
	return harness.FourSpheres(root, harness.Scale{BlockCells: 6, Vars: 4, Timesteps: 4, StagesPerTimestep: 10, MaxLevel: 3})
}

// refineConfig refines after every timestep, with a single stage in
// between. The four spheres bounce between the walls at 0.12 of the
// domain per epoch, so blocks split and merge in every epoch however long
// the run is.
func refineConfig(smoke bool) app.Config {
	sc := harness.Scale{BlockCells: 8, Vars: 8, Timesteps: 8, StagesPerTimestep: 1, MaxLevel: 3}
	if smoke {
		sc.Timesteps, sc.MaxLevel = 4, 2
	}
	cfg := harness.FourSpheres(root, sc)
	cfg.RefineEvery, cfg.ChecksumEvery = 1, 4
	for i := range cfg.Objects {
		o := &cfg.Objects[i]
		o.Move[0] = math.Copysign(0.12, o.Move[0])
		o.Bounce = true
	}
	return cfg
}

// miniamrJob turns a fixed problem into a seeded one: the seed jitters
// every sphere's centre, radius and speed; the application sees only the
// resulting app.Config.
func miniamrJob(base func(smoke bool) app.Config) func(uint64, bool) jobMaker {
	return func(seed uint64, smoke bool) jobMaker {
		cfg := base(smoke)
		r := newRand(seed)
		for i := range cfg.Objects {
			o := &cfg.Objects[i]
			for d := 0; d < 3; d++ {
				o.Center[d] = jitter(r, o.Center[d], seedJitter)
				o.Size[d] = jitter(r, o.Size[d], seedJitter)
				o.Move[d] = jitter(r, o.Move[d], seedJitter)
			}
		}
		return func(v harness.Variant, obs *widthObserver) driver.Job {
			c := cfg
			if v == harness.DataFlow {
				harness.DataFlowOptions(&c)
				if obs != nil {
					c.TaskObserver = obs.forRank
				}
			}
			return app.Job(c)
		}
	}
}

// hydroJob keeps the grid fixed and lets the seed pick the gas (gamma)
// and the CFL factor: both change every cell value and every timestep
// length, hence the checksums, and leave the amount of work alone.
func hydroJob(seed uint64, smoke bool) jobMaker {
	cfg := hydro.Config{
		NX: 256, NY: 256, TilesX: 16, TilesY: 16,
		Timesteps: 50, ChecksumEvery: 4,
	}
	if smoke {
		cfg.NX, cfg.NY, cfg.TilesX, cfg.TilesY, cfg.Timesteps = 32, 32, 4, 4, 6
	}
	r := newRand(seed)
	cfg.CFL = jitter(r, 0.4, 0.05)
	cfg.Gamma = jitter(r, 1.4, 0.02)
	return func(v harness.Variant, obs *widthObserver) driver.Job {
		c := cfg
		if v == harness.DataFlow {
			c.SeparateBuffers = true
			if obs != nil {
				c.TaskObserver = obs.forRank
			}
		}
		return hydro.Job(c)
	}
}
