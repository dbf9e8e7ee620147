package driver

import (
	"time"

	"miniamr/internal/task"
)

// Hooks is the variant-specific stage set plugged into the shared main
// loop. An application implements Hooks once per variant; the loop is
// identical across applications and variants (the paper's Algorithm 1/4
// shape: communicate/compute stages, periodic checksums, periodic
// refinement at quiesced points).
type Hooks interface {
	// BeginStep runs once before each timestep's stages — the slot for
	// per-step global work such as a CFL timestep reduction. ts counts
	// from 1.
	BeginStep(ts int) error
	// Communicate exchanges halo data for the variable group [g0, g1).
	// stage is the 1-based stage within the timestep, for applications
	// whose stages differ (e.g. dimension-split sweeps).
	Communicate(stage, g0, g1 int) error
	// Compute applies the stage's kernel to the group.
	Compute(stage, g0, g1 int) error
	// Checksum runs one checksum/validation stage over all variables;
	// stage is the global stage counter.
	Checksum(stage int) error
	// Quiesce completes all in-flight asynchronous stage work. The loop
	// calls it before starting the refinement clock so that drained stage
	// work is not accounted as refinement time.
	Quiesce() error
	// Refine runs one refinement phase; advance moves the refinement
	// sources first. Applications without mesh adaptation return
	// (false, nil) and configure the loop with RefineEvery <= 0.
	Refine(advance bool) (bool, error)
	// Drain completes outstanding asynchronous work at the end of the run
	// (including a pending delayed checksum validation).
	Drain() error
}

// StageObserver is a task observer that follows its rank's driver too: the
// stage hooks of the main loop and the names of the dependency regions the
// graph engine's tasks declare. The task-graph recorder is one; a driver
// hands it both through Observe and GraphOptions.
type StageObserver interface {
	task.Observer
	// Stages wraps the rank's stage hooks; the main loop runs what it
	// returns.
	Stages(Hooks) Hooks
	// Names receives the driver's region namer (GraphOptions.Describe) when
	// a graph engine is built.
	Names(func(task.Region) string)
}

// Observe returns the hooks a rank's main loop runs: h, wrapped by obs
// when obs is a StageObserver.
func Observe(h Hooks, obs task.Observer) Hooks {
	if so, ok := obs.(StageObserver); ok {
		return so.Stages(h)
	}
	return h
}

// Loop is the shared main-loop schedule. The zero value of the optional
// knobs disables them (no initial refinement, no refinement epochs, no
// checksums); Timesteps, StagesPerTimestep and Groups describe the
// mandatory stage structure.
type Loop struct {
	// Timesteps and StagesPerTimestep shape the outer loops.
	Timesteps         int
	StagesPerTimestep int
	// ChecksumEvery triggers a checksum stage every N global stages;
	// <= 0 disables checksums.
	ChecksumEvery int
	// RefineEvery triggers a refinement phase every N timesteps; <= 0
	// disables refinement.
	RefineEvery int
	// Groups lists the variable groups of each stage as [g0, g1) ranges.
	Groups [][2]int
	// InitialRefine iterates Refine(false) before the main loop until the
	// mesh reaches the refinement sources' steady state, at most
	// MaxInitialRefine+1 times (one level per epoch, as the reference
	// refines before its main loop).
	InitialRefine    bool
	MaxInitialRefine int
	// StartStep and StartStage carry restart counters: the loop resumes
	// at timestep StartStep+1 with the global stage counter preloaded.
	StartStep  int
	StartStage int
}

// LoopResult reports the loop's own accounting.
type LoopResult struct {
	// Elapsed is the wall-clock time of the whole loop including the
	// initial refinement.
	Elapsed time.Duration
	// RefineTime is the wall-clock time spent inside refinement phases
	// (initial refinement included, quiesce excluded).
	RefineTime time.Duration
	// FinalStage is the global stage counter after the last timestep,
	// the value a checkpoint must carry.
	FinalStage int
}

// Run executes the schedule over a stage set.
func (l Loop) Run(h Hooks) (LoopResult, error) {
	var res LoopResult
	start := time.Now()

	if l.InitialRefine {
		rStart := time.Now()
		for i := 0; i <= l.MaxInitialRefine; i++ {
			changed, err := h.Refine(false)
			if err != nil {
				return res, err
			}
			if !changed {
				break
			}
		}
		res.RefineTime += time.Since(rStart)
	}

	stage := l.StartStage
	for ts := l.StartStep + 1; ts <= l.Timesteps; ts++ {
		if err := h.BeginStep(ts); err != nil {
			return res, err
		}
		for st := 1; st <= l.StagesPerTimestep; st++ {
			stage++
			for _, g := range l.Groups {
				if err := h.Communicate(st, g[0], g[1]); err != nil {
					return res, err
				}
				if err := h.Compute(st, g[0], g[1]); err != nil {
					return res, err
				}
			}
			if l.ChecksumEvery > 0 && stage%l.ChecksumEvery == 0 {
				if err := h.Checksum(stage); err != nil {
					return res, err
				}
			}
		}
		if l.RefineEvery > 0 && ts%l.RefineEvery == 0 {
			if err := h.Quiesce(); err != nil {
				return res, err
			}
			rStart := time.Now()
			if _, err := h.Refine(true); err != nil {
				return res, err
			}
			res.RefineTime += time.Since(rStart)
		}
	}
	if err := h.Drain(); err != nil {
		return res, err
	}
	res.FinalStage = stage
	res.Elapsed = time.Since(start)
	return res, nil
}
