// Package hydro is the second application on the variant-agnostic driver
// skeleton: a 2D compressible Euler solver in the shape of the HYDRO
// mini-app the paper taskifies alongside miniAMR. The grid is a fixed
// (non-adaptive) tile decomposition; each timestep is two dimension-split
// first-order Godunov sweeps (X then Y) with a Rusanov flux, preceded by
// a global CFL timestep reduction and followed by a conserved-quantity
// checksum validation.
//
// The package deliberately shares no code with internal/amr: everything
// variant-shaped — the main loop, the execution engines, the comm-plan
// cache, the checksum oracle — comes from internal/driver, which is the
// point of the port.
package hydro

import (
	"fmt"

	"miniamr/internal/sanitize"
	"miniamr/internal/task"
)

// hydroVars is the number of conserved variables per cell: density, x/y
// momentum and total energy.
const hydroVars = 4

// Config describes one HYDRO problem.
type Config struct {
	// NX, NY are the global interior cell counts.
	NX, NY int
	// TilesX, TilesY decompose the grid into TilesX*TilesY tiles. Both
	// must be at least 2 (so a tile is never its own neighbour) and must
	// divide NX and NY evenly. Tiles are distributed over ranks in
	// contiguous id ranges.
	TilesX, TilesY int
	// Timesteps is the number of coupled X+Y sweep steps.
	Timesteps int
	// ChecksumEvery validates the conserved-quantity checksums every N
	// global stages (there are 2 stages per timestep); 0 defaults to 2,
	// a negative value disables validation.
	ChecksumEvery int
	// CFL is the timestep safety factor; 0 defaults to 0.4.
	CFL float64
	// Gamma is the ideal-gas adiabatic index; 0 defaults to 1.4.
	Gamma float64
	// ChecksumTolerance is the admissible relative drift between
	// consecutive checksums. The scheme is conservative on a periodic
	// domain, so drift is round-off only; 0 defaults to 1e-6.
	ChecksumTolerance float64
	// Workers is the worker count of the hybrid variants; 0 defaults
	// to 1.
	Workers int
	// Sanitizer, when non-nil, attaches the amrsan dependency sanitizer
	// to the data-flow variant. Runtime-only: excluded from the wire
	// encoding of multi-process runs.
	Sanitizer *sanitize.Sanitizer `json:"-"`
	// TaskObserver, when non-nil, yields a per-rank task lifecycle
	// observer, asked for once per rank: the data-flow variant tees it with
	// the sanitizer's (e.g. a task.NewWidthMeter measuring dynamic
	// concurrency), and every variant passes its stage hooks through it
	// when it is a driver.StageObserver (the task-graph recorder).
	// Runtime-only, like Sanitizer.
	TaskObserver func(rank int) task.Observer `json:"-"`
	// BlockingTAMPI uses blocking TAMPI operations in communication tasks
	// instead of Irecv/Isend + Iwait.
	BlockingTAMPI bool
	// SeparateBuffers keys the data-flow buffer sections per direction;
	// off, the X and Y sections share one key space, reproducing the
	// false cross-direction dependencies of shared buffers.
	SeparateBuffers bool
}

// Validate checks the configuration and applies defaults in place.
func (c *Config) Validate() error {
	if c.NX <= 0 || c.NY <= 0 {
		return fmt.Errorf("hydro: grid %dx%d must be positive", c.NX, c.NY)
	}
	if c.TilesX < 2 || c.TilesY < 2 {
		return fmt.Errorf("hydro: tiling %dx%d must be at least 2x2", c.TilesX, c.TilesY)
	}
	if c.NX%c.TilesX != 0 || c.NY%c.TilesY != 0 {
		return fmt.Errorf("hydro: tiling %dx%d does not divide grid %dx%d",
			c.TilesX, c.TilesY, c.NX, c.NY)
	}
	if c.Timesteps <= 0 {
		return fmt.Errorf("hydro: timesteps %d must be positive", c.Timesteps)
	}
	if c.ChecksumEvery == 0 {
		c.ChecksumEvery = 2
	}
	if c.CFL == 0 {
		c.CFL = 0.4
	}
	if c.CFL <= 0 || c.CFL >= 1 {
		return fmt.Errorf("hydro: CFL %v out of (0,1)", c.CFL)
	}
	if c.Gamma == 0 {
		c.Gamma = 1.4
	}
	if c.Gamma <= 1 {
		return fmt.Errorf("hydro: gamma %v must exceed 1", c.Gamma)
	}
	if c.ChecksumTolerance == 0 {
		c.ChecksumTolerance = 1e-6
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	return nil
}
