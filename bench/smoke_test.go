package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"miniamr/internal/harness"
)

// The multi-process workload re-executes the running binary, here the
// test binary, for its children.
func TestMain(m *testing.M) {
	harness.MaybeRunWireChild()
	os.Exit(m.Run())
}

// TestSmoke drives the whole runner - all four workloads, end-to-end and
// per-layer, the Procs: 2 re-exec included - at reduced sizes.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	out, spans := filepath.Join(dir, "report.json"), filepath.Join(dir, "spans.json")
	var stdout, stderr bytes.Buffer
	start := time.Now()
	status := realMain([]string{"-smoke", "-seed", "3", "-out", out, "-trace-out", spans}, &stdout, &stderr)
	if status != 0 {
		t.Fatalf("exit status %d\n%s", status, stderr.String())
	}
	t.Logf("smoke run took %v (a few seconds without -race)", time.Since(start))

	var defs []metricDef
	defs = append(defs, endToEndDefs...)
	defs = append(defs, perLayerDefs()...)
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(nil, 1<<20)
	lines := 0
	for sc.Scan() {
		var line struct {
			Correct   bool                 `json:"correct"`
			Attempted int                  `json:"attempted"`
			Failed    int                  `json:"failed"`
			Metrics   map[string]valueUnit `json:"metrics"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("result line %d: %v", lines, err)
		}
		if !line.Correct || line.Failed != 0 || line.Attempted < 10 {
			t.Errorf("result line %d: correct %v, attempted %d, failed %d", lines, line.Correct, line.Attempted, line.Failed)
		}
		for _, d := range defs {
			if m, ok := line.Metrics[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("result line %d: metric %s missing or in unit %q", lines, d.Name, m.Unit)
			}
		}
		if len(line.Metrics) != len(defs) {
			t.Errorf("result line %d: %d metrics, declared %d", lines, len(line.Metrics), len(defs))
		}
		lines++
	}
	if lines != len(workloads) {
		t.Fatalf("%d result lines, want one per workload (%d)", lines, len(workloads))
	}

	var rep report
	if err := readJSON(out, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != len(workloads) || rep.Header.Seed != 3 || rep.Header.GOMAXPROCS < 1 {
		t.Errorf("report header %+v with %d results", rep.Header, len(rep.Results))
	}
	var trace struct {
		TraceEvents []struct {
			Name string
			Args map[string]any
		}
	}
	if err := readJSON(spans, &trace); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, e := range trace.TraceEvents {
		seen[e.Name] = true
		if e.Args["run"] == nil || e.Args["id"] == nil {
			t.Fatalf("span %q lacks its ids: %v", e.Name, e.Args)
		}
	}
	for _, name := range []string{"bench", "micro-suite", "taskbench", "hydro-tcp", "round 0", "round 0 dataflow", "traced mpionly"} {
		if !seen[name] {
			t.Errorf("no span named %q", name)
		}
	}
}

// A report compared with itself is ok on every row.
func TestCompareSelf(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "a.json")
	var stdout, stderr bytes.Buffer
	if status := realMain([]string{"-smoke", "-workload", "miniamr-fine", "-trace", "0", "-out", out}, &stdout, &stderr); status != 0 {
		t.Fatalf("exit status %d\n%s", status, stderr.String())
	}
	stdout.Reset()
	status := realMain([]string{"-compare", "-spec", "../BENCHMARK.json", out, out}, &stdout, &stderr)
	if status != 0 {
		t.Fatalf("compare exit status %d\n%s%s", status, stdout.String(), stderr.String())
	}
	if rows := bytes.Count(stdout.Bytes(), []byte("\n")); rows != 1+len(endToEndDefs) {
		t.Errorf("%d rows, want a header and %d metrics:\n%s", rows, len(endToEndDefs), stdout.String())
	}
	if bytes.Contains(stdout.Bytes(), []byte("worse")) {
		t.Errorf("a report is worse than itself:\n%s", stdout.String())
	}
}
