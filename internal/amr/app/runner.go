package app

import (
	"time"

	"miniamr/internal/driver"
)

func init() {
	driver.Register("miniamr", driver.Variants...)
}

// runMain executes the miniAMR main loop (the paper's Algorithm 1/4) over
// a variant's stage hooks and collects the rank's results. The loop
// schedule itself lives in the driver skeleton; miniAMR contributes the
// stage structure (its variable groups, checksum cadence and refinement
// cadence) and the checkpoint/result plumbing around it.
func runMain(s *state, h driver.Hooks) (Result, error) {
	start := time.Now()
	loop := driver.Loop{
		Timesteps:         s.cfg.Timesteps,
		StagesPerTimestep: s.cfg.StagesPerTimestep,
		ChecksumEvery:     s.cfg.ChecksumEvery,
		RefineEvery:       s.cfg.RefineEvery,
		Groups:            s.cfg.Groups(),
		// Initial refinement iterates to the objects' steady state, one
		// level per epoch, exactly as the reference refines before the
		// main loop. A restored run skips it: the snapshot's mesh already
		// reflects the objects, and re-running it could diverge from the
		// uninterrupted run.
		InitialRefine:    !s.restored,
		MaxInitialRefine: s.cfg.MaxLevel + 1,
		StartStep:        s.startStep,
		StartStage:       s.startStage,
	}
	lr, err := loop.Run(h)
	s.refineTime += lr.RefineTime
	if err != nil {
		return Result{}, err
	}
	if s.cfg.CheckpointFile != "" {
		if err := s.saveCheckpoint(s.cfg.Timesteps, lr.FinalStage); err != nil {
			return Result{}, err
		}
	}
	res := Result{
		TotalTime:    time.Since(start),
		RefineTime:   s.refineTime,
		Flops:        s.flops,
		Checksums:    s.oracle.History,
		FinalBlocks:  len(s.data),
		RefineEpochs: s.refineCount,
		Comm:         s.comm.Stats(),
		MeshHistory:  s.meshHistory,
	}
	if s.cfg.RenderMesh {
		res.FinalMeshView = s.msh.RenderSlice(0.5, false)
	}
	return res, nil
}
