package main

import (
	"os"
	"reflect"
	"regexp"
	"testing"
)

// TestSpecMatchesCode keeps BENCHMARK.json, the contract the driver
// reads, in step with the workloads and metrics the code defines, and
// inside the contract's limits.
func TestSpecMatchesCode(t *testing.T) {
	var spec benchmarkSpec
	if err := readJSON("../BENCHMARK.json", &spec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.Command, []string{"bash", "bench/run.sh"}) || !reflect.DeepEqual(spec.Paths, []string{"bench"}) {
		t.Errorf("command %v, paths %v", spec.Command, spec.Paths)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", spec.RunSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the spec, %d in the code", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: spec has %q (%q), code has %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEndDefs) {
		t.Errorf("end_to_end differs:\nspec %+v\ncode %+v", spec.EndToEnd, endToEndDefs)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayerDefs()) {
		t.Errorf("per_layer differs:\nspec %+v\ncode %+v", spec.PerLayer, perLayerDefs())
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	hasSetup := false
	for _, d := range append(append([]metricDef(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !name.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("metric name %q is malformed or repeated", d.Name)
		}
		seen[d.Name] = true
		if !unit.MatchString(d.Unit) {
			t.Errorf("metric %s: unit %q is malformed", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better %q", d.Name, d.Better)
		}
		if d.Bound < 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside 0..0.25", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	for _, d := range spec.EndToEnd {
		if d.Bound == 0 {
			t.Errorf("end-to-end metric %s has no bound", d.Name)
		}
	}
	if !hasSetup || len(spec.PerLayer) > 128 || len(spec.EndToEnd) > 16 {
		t.Errorf("setup_s present %v, %d per-layer and %d end-to-end metrics", hasSetup, len(spec.PerLayer), len(spec.EndToEnd))
	}
	if info, err := os.Stat("../BENCHMARK.json"); err != nil || info.Size() > 64<<10 {
		t.Errorf("BENCHMARK.json: %v, size limit 64 KiB", err)
	}
}
