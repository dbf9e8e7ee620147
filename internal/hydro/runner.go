package hydro

import (
	"encoding/json"
	"fmt"
	"time"

	"miniamr/internal/driver"
	"miniamr/internal/mpi"
	"miniamr/internal/sanitize"
	"miniamr/internal/task"
	"miniamr/internal/trace"
)

func init() {
	driver.Register("hydro", driver.Variants...)
}

// Result is the driver skeleton's per-rank result record.
type Result = driver.Result

// runMain executes the HYDRO main loop over a stage set: two
// dimension-split sweep stages per timestep over the single all-variables
// group, a CFL reduction opening each step, periodic checksums, no
// refinement.
func runMain(s *state, h driver.Hooks) (Result, error) {
	start := time.Now()
	loop := driver.Loop{
		Timesteps:         s.cfg.Timesteps,
		StagesPerTimestep: 2,
		ChecksumEvery:     s.cfg.ChecksumEvery,
		Groups:            [][2]int{{0, hydroVars}},
	}
	if _, err := loop.Run(h); err != nil {
		return Result{}, err
	}
	return Result{
		TotalTime:   time.Since(start),
		Flops:       s.flops,
		Checksums:   s.oracle.History,
		FinalBlocks: len(s.tiles),
		Comm:        s.comm.Stats(),
	}, nil
}

// RunMPIOnly executes HYDRO with the reference MPI-only strategy: the
// loop driver on one worker per rank.
func RunMPIOnly(cfg Config, c *mpi.Comm, rec *trace.Recorder) (Result, error) {
	return runLoop(cfg, 1, c, rec)
}

// RunForkJoin executes HYDRO with the hybrid MPI+OpenMP fork-join
// strategy: the loop driver on cfg.Workers threads per rank.
func RunForkJoin(cfg Config, c *mpi.Comm, rec *trace.Recorder) (Result, error) {
	return runLoop(cfg, cfg.Workers, c, rec)
}

func runLoop(cfg Config, workers int, c *mpi.Comm, rec *trace.Recorder) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	d := newLoopDriver(newState(&cfg, c, rec), workers)
	defer d.eng.ClosePool()
	var obs task.Observer
	if cfg.TaskObserver != nil {
		obs = cfg.TaskObserver(c.Rank())
	}
	res, err := runMain(d.s, driver.Observe(d, obs))
	if err != nil {
		return Result{}, err
	}
	d.eng.Close()
	d.s.close()
	return res, nil
}

// RunDataFlow executes HYDRO with the paper's hybrid TAMPI data-flow
// strategy.
func RunDataFlow(cfg Config, c *mpi.Comm, rec *trace.Recorder) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	s := newState(&cfg, c, rec)
	var obs task.Observer
	if cfg.TaskObserver != nil {
		obs = cfg.TaskObserver(c.Rank())
	}
	d := &dfDriver{s: s}
	g, err := driver.NewGraphEngine(driver.GraphOptions{
		Comm:       c,
		Recorder:   rec,
		Workers:    cfg.Workers,
		Sanitizer:  cfg.Sanitizer,
		Observer:   obs,
		ScratchLen: scratchLen(&cfg),
		Describe:   d.describe,
	})
	if err != nil {
		return Result{}, err
	}
	d.reserve(g)
	res, err := runMain(s, driver.Observe(d, obs))
	if err != nil {
		return Result{}, err
	}
	res.TaskCount = g.SpawnCount()
	g.Close()
	s.close()
	return res, nil
}

// Job packages a HYDRO configuration as a driver.Job for the harness.
func Job(cfg Config) driver.Job { return job{cfg: cfg} }

// The decoder lets a multi-process child rebuild the job from the JSON
// the parent shipped (see driver.EncodeJob / DecodeJob).
func init() {
	driver.RegisterDecoder("hydro", func(cfgJSON []byte) (driver.Job, error) {
		var cfg Config
		if err := json.Unmarshal(cfgJSON, &cfg); err != nil {
			return nil, fmt.Errorf("hydro: decoding wire config: %w", err)
		}
		return Job(cfg), nil
	})
}

type job struct{ cfg Config }

func (j job) App() string { return "hydro" }

// Config exposes the configuration for wire encoding (driver.ConfigJob).
func (j job) Config() any { return j.cfg }

// Bind resolves a variant to its entry point with the harness-owned
// settings applied: workers overrides the per-rank core count and san,
// when non-nil, attaches the runtime sanitizer.
func (j job) Bind(v driver.Variant, workers int, san *sanitize.Sanitizer) (driver.Program, error) {
	cfg := j.cfg
	cfg.Workers = workers
	if san != nil {
		cfg.Sanitizer = san
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var run func(Config, *mpi.Comm, *trace.Recorder) (Result, error)
	switch v {
	case driver.MPIOnly:
		run = RunMPIOnly
	case driver.ForkJoin:
		run = RunForkJoin
	case driver.DataFlow:
		run = RunDataFlow
	default:
		return nil, fmt.Errorf("hydro: unknown variant %q (known: %v)", v, driver.Variants)
	}
	return func(c *mpi.Comm, rec *trace.Recorder) (driver.Result, error) {
		return run(cfg, c, rec)
	}, nil
}
