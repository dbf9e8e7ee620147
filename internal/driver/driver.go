// Package driver is the variant-agnostic execution skeleton shared by
// every proxy application in this repository. The paper's thesis is that
// the TAMPI+data-flow transformation is a pattern, not a miniAMR trick;
// this package makes the pattern an API: the three parallelisation
// variants (MPI-only, fork-join, data-flow), the shared main loop, the
// checksum oracle, pooled communication slabs and cached message plans,
// and the two execution engines all live here, so an application only
// contributes stage definitions (pack/compute/reduce bodies and, for the
// graph engine, the dependency regions they access: integer handles the
// application reserves on the engine and computes from its own indices).
//
// An application integrates in three steps:
//
//  1. Register its name and supported variants with Register (init time).
//  2. Implement Hooks over its per-rank state twice: a loop driver on the
//     LoopEngine and a graph driver on the GraphEngine. MPI-only is the
//     loop driver on one worker per rank (its regions then run inline),
//     fork-join the same driver on the rank's cores, as the reference's
//     MPI+OpenMP build is its MPI code plus pragmas.
//  3. Expose a Job that binds a validated configuration to a Program;
//     the harness runs Jobs without knowing the application.
package driver

import (
	"fmt"
	"sort"
	"sync"

	"miniamr/internal/mpi"
	"miniamr/internal/sanitize"
	"miniamr/internal/trace"
)

// Variant selects a parallelisation strategy.
type Variant string

// The three variants the paper evaluates.
const (
	MPIOnly  Variant = "mpionly"  // reference MPI-only, one rank per core
	ForkJoin Variant = "forkjoin" // hybrid MPI+OpenMP fork-join
	DataFlow Variant = "dataflow" // hybrid TAMPI+OmpSs-2 data-flow (the paper's)
)

// Variants lists all variants in presentation order.
var Variants = []Variant{MPIOnly, ForkJoin, DataFlow}

// String implements flag.Value-style display.
func (v Variant) String() string { return string(v) }

// Program is one rank's bound entry point: a validated configuration
// closed over an application runner, ready to execute on a communicator.
type Program func(c *mpi.Comm, rec *trace.Recorder) (Result, error)

// Job is an application run the harness can execute without knowing the
// application: it names the app (for the variant registry) and binds a
// variant to a runnable Program.
type Job interface {
	// App returns the registered application name.
	App() string
	// Bind resolves the variant to a Program, applying the harness-owned
	// settings: workers is the per-rank core count and san, when non-nil,
	// is the attached runtime sanitizer. Bind validates the underlying
	// configuration and fails on unknown variants.
	Bind(v Variant, workers int, san *sanitize.Sanitizer) (Program, error)
}

var (
	regMu    sync.Mutex
	registry = map[string][]Variant{}
)

// Register records an application and the variants it implements.
// Applications register from an init function; registering the same name
// again replaces the previous entry.
func Register(app string, variants ...Variant) {
	regMu.Lock()
	defer regMu.Unlock()
	registry[app] = append([]Variant(nil), variants...)
}

// Apps returns the registered application names, sorted.
func Apps() []string {
	regMu.Lock()
	defer regMu.Unlock()
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// CheckVariant validates an (application, variant) pair against the
// registry, with an error that names the known variants: unknown variant
// strings must fail loudly instead of falling through to a default.
func CheckVariant(app string, v Variant) error {
	regMu.Lock()
	known, ok := registry[app]
	regMu.Unlock()
	if !ok {
		return fmt.Errorf("driver: unknown application %q (registered: %v)", app, Apps())
	}
	for _, k := range known {
		if k == v {
			return nil
		}
	}
	return fmt.Errorf("driver: application %q does not implement variant %q (known variants: %v)", app, v, known)
}
