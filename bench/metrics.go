package main

import (
	"fmt"
	"sort"
)

// metric is one reported number. When it was estimated from per-round
// samples, Estimator names how ("min" or "median") and Samples describes
// them.
type metric struct {
	Value     float64  `json:"value"`
	Unit      string   `json:"unit"`
	Estimator string   `json:"estimator,omitempty"`
	Samples   *summary `json:"samples,omitempty"`
}

type metricSet map[string]metric

func (m metricSet) set(name string, v float64, unit string) {
	m[name] = metric{Value: v, Unit: unit}
}

// setMin reports a timing: the minimum over rounds. Interference on a
// small shared host is additive and bursty, and only the minimum repeated
// within a tenth between invocations.
func (m metricSet) setMin(name, unit string, samples []float64) {
	s := summarize(samples)
	m[name] = metric{Value: s.Min, Unit: unit, Estimator: "min", Samples: &s}
}

// setMedian reports a ratio or a count: the median over rounds. A ratio
// is taken inside each round first, where host drift cancels.
func (m metricSet) setMedian(name, unit string, samples []float64) {
	s := summarize(samples)
	m[name] = metric{Value: s.Median, Unit: unit, Estimator: "median", Samples: &s}
}

func (m metricSet) names() []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// metricDef declares a metric: BENCHMARK.json repeats name, unit and
// direction (and, for end-to-end metrics, the bound); TestSpecMatchesCode
// keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"mpionly_wall_norm", "ref", "lower", 0.25},
	{"forkjoin_wall_norm", "ref", "lower", 0.25},
	{"dataflow_wall_norm", "ref", "lower", 0.25},
	{"dataflow_vs_mpionly", "x", "higher", 0.15},
	{"dataflow_vs_forkjoin", "x", "higher", 0.15},
	{"dataflow_allocs_per_task", "count", "lower", 0.02},
	{"dataflow_arena_hit_rate", "fraction", "higher", 0.03},
}

// unitCostDefs are the micro-suite's metrics, in suite order.
var unitCostDefs = []metricDef{
	{Name: "grid.stencil7_ns_per_cell", Unit: "ns", Better: "lower"},
	{Name: "grid.stencil7_small_ns_per_cell", Unit: "ns", Better: "lower"},
	{Name: "grid.pack_face_ns_per_cell", Unit: "ns", Better: "lower"},
	{Name: "grid.unpack_face_ns_per_cell", Unit: "ns", Better: "lower"},
	{Name: "grid.restrict_face_ns_per_cell", Unit: "ns", Better: "lower"},
	{Name: "grid.checksum_ns_per_cell", Unit: "ns", Better: "lower"},
	{Name: "grid.split_us", Unit: "us", Better: "lower"},
	{Name: "grid.consolidate_us", Unit: "us", Better: "lower"},
	{Name: "membuf.get_put_hit_ns", Unit: "ns", Better: "lower"},
	{Name: "membuf.get_miss_ns", Unit: "ns", Better: "lower"},
	{Name: "membuf.lease_cycle_ns", Unit: "ns", Better: "lower"},
	{Name: "membuf.cache_get_put_ns", Unit: "ns", Better: "lower"},
	{Name: "mpi.pingpong_1_ns", Unit: "ns", Better: "lower"},
	{Name: "mpi.pingpong_16k_ns", Unit: "ns", Better: "lower"},
	{Name: "mpi.pingpong_allocs", Unit: "count", Better: "lower"},
	{Name: "mpi.unexpected_depth256_ns", Unit: "ns", Better: "lower"},
	{Name: "mpi.posted_depth256_ns", Unit: "ns", Better: "lower"},
	{Name: "mpi.waitany_64_ns", Unit: "ns", Better: "lower"},
	{Name: "mpi.allreduce_4r_us", Unit: "us", Better: "lower"},
	{Name: "mpi.barrier_4r_us", Unit: "us", Better: "lower"},
	{Name: "mpi.allgatherv_4r_us", Unit: "us", Better: "lower"},
	{Name: "task.spawn_independent_ns", Unit: "ns", Better: "lower"},
	{Name: "task.spawn_chain_ns", Unit: "ns", Better: "lower"},
	{Name: "task.spawn_fanout_ns", Unit: "ns", Better: "lower"},
	{Name: "task.multidep_ns", Unit: "ns", Better: "lower"},
	{Name: "task.external_event_ns", Unit: "ns", Better: "lower"},
	{Name: "task.allocs_per_spawn", Unit: "count", Better: "lower"},
	{Name: "task.metg50_trivial_us", Unit: "us", Better: "lower"},
	{Name: "task.metg50_stencil_us", Unit: "us", Better: "lower"},
	{Name: "task.metg50_tree_us", Unit: "us", Better: "lower"},
	{Name: "task.metg50_alltoall_us", Unit: "us", Better: "lower"},
	{Name: "tampi.iwait_wake_us", Unit: "us", Better: "lower"},
	{Name: "tampi.blocking_recv_us", Unit: "us", Better: "lower"},
	{Name: "tampi.allocs_per_request", Unit: "count", Better: "lower"},
	{Name: "forkjoin.for_empty_us", Unit: "us", Better: "lower"},
	{Name: "forkjoin.for_dynamic_empty_us", Unit: "us", Better: "lower"},
	{Name: "wire.encode_gbps", Unit: "GB/s", Better: "higher"},
	{Name: "wire.decode_gbps", Unit: "GB/s", Better: "higher"},
	{Name: "wire.frame_small_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.tcp_pingpong_1_us", Unit: "us", Better: "lower"},
	{Name: "wire.tcp_pingpong_16k_us", Unit: "us", Better: "lower"},
	{Name: "wire.tcp_stream_gbps", Unit: "GB/s", Better: "higher"},
	{Name: "wire.bootstrap_ms", Unit: "ms", Better: "lower"},
	{Name: "host.ref_sample_ms", Unit: "ms", Better: "lower"},
	{Name: "host.noise_ratio", Unit: "x", Better: "lower"},
}

// perVariantDefs are emitted once per variant, prefixed with its key.
var perVariantDefs = []metricDef{
	{Name: "wall_s", Unit: "s", Better: "lower"},
	{Name: "gflops", Unit: "gflop/s", Better: "higher"},
	{Name: "refine_s", Unit: "s", Better: "lower"},
	{Name: "messages", Unit: "count", Better: "lower"},
	{Name: "comm_bytes", Unit: "bytes", Better: "lower"},
	{Name: "arena_gets", Unit: "count", Better: "lower"},
	{Name: "arena_hit_rate", Unit: "fraction", Better: "higher"},
	{Name: "heap_allocs", Unit: "count", Better: "lower"},
	{Name: "par_eff", Unit: "fraction", Better: "higher"},
	{Name: "tcp_vs_inproc", Unit: "x", Better: "lower"},
	{Name: "model_comm_share", Unit: "fraction", Better: "lower"},
	{Name: "trace.kernel_s", Unit: "s", Better: "lower"},
	{Name: "trace.pack_s", Unit: "s", Better: "lower"},
	{Name: "trace.wait_s", Unit: "s", Better: "lower"},
	{Name: "trace.other_s", Unit: "s", Better: "lower"},
	{Name: "trace.idle_s", Unit: "s", Better: "lower"},
	{Name: "trace.overlap_s", Unit: "s", Better: "higher"},
	{Name: "trace.utilization", Unit: "fraction", Better: "higher"},
	{Name: "trace.overhead", Unit: "x", Better: "lower"},
}

var perWorkloadDefs = []metricDef{
	{Name: "dataflow.tasks", Unit: "count", Better: "lower"},
	{Name: "dataflow.model_runtime_share", Unit: "fraction", Better: "lower"},
	{Name: "dataflow.ready_highwater", Unit: "count", Better: "higher"},
	{Name: "serial.wall_s", Unit: "s", Better: "lower"},
	{Name: "harness.spawn_s", Unit: "s", Better: "lower"},
}

// perLayerDefs lists every per-layer metric a traced invocation prints.
func perLayerDefs() []metricDef {
	defs := append([]metricDef(nil), unitCostDefs...)
	for _, v := range variants {
		for _, d := range perVariantDefs {
			d.Name = variantKey(v) + "." + d.Name
			defs = append(defs, d)
		}
	}
	return append(defs, perWorkloadDefs...)
}

// checkComplete reports the declared metrics a run failed to produce and
// the produced ones nobody declared: either is a bug in the benchmark.
func checkComplete(defs []metricDef, got metricSet) error {
	want := map[string]string{}
	for _, d := range defs {
		want[d.Name] = d.Unit
		m, ok := got[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		if m.Unit != d.Unit {
			return fmt.Errorf("metric %s has unit %q, declared %q", d.Name, m.Unit, d.Unit)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			return fmt.Errorf("metric %s is not declared", name)
		}
	}
	return nil
}
