package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchmarkSpec is BENCHMARK.json, the contract at the root of the
// repository.
type benchmarkSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// resolution is how far a single invocation pins an end-to-end metric
// down: the interquartile range of its per-round samples as a share of
// their median (every end-to-end metric is a median over rounds).
func resolution(m metric) float64 {
	if m.Samples == nil {
		return 0
	}
	return m.Samples.spread()
}

// verdict applies a metric's bound to two measurements of it: "worse"
// when b is worse than a by more than the bound, "unresolved" when either
// measurement's own spread exceeds the bound (so neither "ok" nor "worse"
// could be trusted), "ok" otherwise. change is b's relative change in the
// worse direction.
func verdict(def metricDef, a, b metric) (status string, change float64) {
	change = (b.Value - a.Value) / a.Value
	if def.Better == "higher" {
		change = -change
	}
	switch {
	case max(resolution(a), resolution(b)) > def.Bound:
		status = "unresolved"
	case change > def.Bound:
		status = "worse"
	default:
		status = "ok"
	}
	return status, change
}

// compareReports prints one row per workload x end-to-end metric for two
// -out files and returns non-zero when any row is worse.
func compareReports(specPath, aPath, bPath string, stdout, stderr io.Writer) int {
	var spec benchmarkSpec
	var a, b report
	for _, in := range []struct {
		path string
		v    any
	}{{specPath, &spec}, {aPath, &a}, {bPath, &b}} {
		if err := readJSON(in.path, in.v); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 2
		}
	}
	other := map[string]result{}
	for _, res := range b.Results {
		other[res.Workload] = res
	}
	status := 0
	fmt.Fprintf(stdout, "%-16s %-26s %12s %12s %8s %6s  %s\n", "workload", "metric", "a", "b", "change", "bound", "verdict")
	for _, ra := range a.Results {
		rb, ok := other[ra.Workload]
		if !ok {
			continue
		}
		for _, def := range spec.EndToEnd {
			ma, okA := ra.Metrics[def.Name]
			mb, okB := rb.Metrics[def.Name]
			if !okA || !okB {
				continue
			}
			v, change := verdict(def, ma, mb)
			if v == "worse" {
				status = 1
			}
			fmt.Fprintf(stdout, "%-16s %-26s %12.6g %12.6g %+7.1f%% %5.0f%%  %s\n",
				ra.Workload, def.Name, ma.Value, mb.Value, 100*change, 100*def.Bound, v)
		}
	}
	return status
}
