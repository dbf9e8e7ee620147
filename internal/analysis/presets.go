package analysis

import "fmt"

// DefaultCostConfig returns the committed evaluation points of a
// driver's static performance profile: the per-rank instance counts of
// the repo's reference configuration (a 2x2x2-block rank with four
// remote neighbour messages), the payload bytes that encode the
// surface-to-volume split between ghost-face messages and whole-block
// exchange transfers, and the worker count of the variant's execution
// model. A loop driver graph has two points, because it is two variants:
// the MPI-only rank at one worker and the fork-join rank at sixteen. The
// perf goldens under testdata/golden/perf are rendered at exactly these
// points; amrperf applies user overrides on top.
func DefaultCostConfig(driver string) ([]CostConfig, bool) {
	// One rank of the miniAMR reference configuration: 8 owned blocks,
	// 4 remote neighbour messages per direction carrying 16 packed
	// segments, 24 same-rank copies and 24 domain-boundary faces, a
	// regrid epoch splitting 8 blocks, consolidating 8 and moving 2.
	miniamr := map[string]int{
		"blocks": 8, "msgs": 4, "segs": 16, "locals": 24,
		"bfaces": 24, "splits": 8, "merges": 8, "xfers": 2,
	}
	// A ghost-face message carries one face bundle (surface), a block
	// exchange carries a whole interior (volume).
	miniamrBytes := map[string]int{"msgs": 8192, "xfers": 16384}

	// One rank of the HYDRO reference configuration: 8 tiles in a row,
	// one neighbour message per direction carrying 8 edge segments, 8
	// same-rank edge copies.
	hydro := map[string]int{"tiles": 8, "msgs": 1, "segs": 8, "locals": 8}
	hydroBytes := map[string]int{"msgs": 4096}

	at := func(workers int, axes, bytes map[string]int) CostConfig {
		return CostConfig{Workers: workers, Axes: axes, Bytes: bytes, CollectiveBytes: 8}
	}
	switch driver {
	case "dataflow":
		return []CostConfig{at(16, miniamr, miniamrBytes)}, true
	case "loop":
		return []CostConfig{at(1, miniamr, miniamrBytes), at(16, miniamr, miniamrBytes)}, true
	case "exchange":
		// The block-ownership handshake is a fixed four-message protocol
		// with no parallel regions.
		return []CostConfig{at(1, nil, nil)}, true
	case "hydro-dataflow":
		return []CostConfig{at(16, hydro, hydroBytes)}, true
	case "hydro-loop":
		return []CostConfig{at(1, hydro, hydroBytes), at(16, hydro, hydroBytes)}, true
	}
	return []CostConfig{{Workers: 1}}, false
}

// ProfileName is the name a driver's profile at cfg is filed under: the
// driver's, with the worker count appended when the driver has more than
// one committed point to tell apart.
func ProfileName(driver string, cfg CostConfig) string {
	if points, _ := DefaultCostConfig(driver); len(points) > 1 {
		return fmt.Sprintf("%s-w%d", driver, cfg.Workers)
	}
	return driver
}
