// Command bench is the repository's benchmark: four workloads, each
// running the three variants of an application on the same 4 virtual
// cores, reduced to end-to-end metrics (timed rounds, tracing off) and
// per-layer metrics (a micro-suite over every module's public API, the
// counters of the timed runs, and one traced run per variant). Every
// layer is measured from outside, through public functions and the public
// harness.Metrics. README.md describes every metric and workload;
// BENCHMARK.json at the root of the repository is the contract.
//
//	bash bench/run.sh                                # everything, human-readable
//	bash bench/run.sh --workload miniamr-fine --seed 3 --seconds 20 --trace 0
//	bash bench/run.sh -compare a.json b.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"miniamr/internal/harness"
)

// header records where and how the numbers were taken.
type header struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      int     `json:"trace"`
	WallS      float64 `json:"wall_s"`
}

// report is the -out file: what -compare reads.
type report struct {
	Header  header   `json:"header"`
	Results []result `json:"results"`
}

func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func main() {
	// A multi-process run re-executes this binary for its children.
	harness.MaybeRunWireChild()
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workloadName := fs.String("workload", "all", "workload to run: all, or one of "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "seed of the input generator")
	seconds := fs.Float64("seconds", 28, "seconds the timed rounds of one workload measure")
	traceMode := fs.Int("trace", -1, "0: end-to-end metrics only (tracing off); 1: per-layer metrics only; -1: both")
	smoke := fs.Bool("smoke", false, "one round at reduced sizes (the test suite's mode)")
	outPath := fs.String("out", "", "also write the full report (metrics with their samples) to this file")
	traceOut := fs.String("trace-out", "", "write the benchmark's own spans to this file as Chrome-trace JSON")
	compare := fs.Bool("compare", false, "compare two -out files: -compare a.json b.json")
	specPath := fs.String("spec", "BENCHMARK.json", "the benchmark contract -compare takes the bounds from")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two report files")
			return 2
		}
		return compareReports(*specPath, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	var selected []*workload
	for i := range workloads {
		if *workloadName == "all" || *workloadName == workloads[i].name {
			selected = append(selected, &workloads[i])
		}
	}
	if len(selected) == 0 || *traceMode < -1 || *traceMode > 1 || *seconds <= 0 {
		fmt.Fprintf(stderr, "bench: bad -workload %q, -trace %d or -seconds %v\n", *workloadName, *traceMode, *seconds)
		return 2
	}

	// One generator process on at most 4 host cores. The two children of
	// a multi-process run share the host, so that running threads never
	// exceed its cores.
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(min(nproc, virtualCores))
	os.Setenv("GOMAXPROCS", fmt.Sprint(max(1, nproc/2)))

	started := time.Now()
	opt := options{seed: *seed, seconds: *seconds, smoke: *smoke}
	hdr := header{
		Commit: commit(), GoVersion: runtime.Version(), NProc: nproc,
		GOMAXPROCS: runtime.GOMAXPROCS(0), Seed: *seed, Seconds: *seconds, Trace: *traceMode,
	}
	fmt.Fprintf(stderr, "# miniamr bench: commit %s, %s, nproc %d, GOMAXPROCS %d, seed %d, %gs per workload, trace %d\n",
		hdr.Commit, hdr.GoVersion, hdr.NProc, hdr.GOMAXPROCS, hdr.Seed, hdr.Seconds, hdr.Trace)

	tr := newTracer(fmt.Sprintf("seed%d-%d", *seed, started.UnixNano()))
	root := tr.begin(0, "bench")
	wantE2E, wantLayers := *traceMode != 1, *traceMode != 0

	var unit metricSet
	if wantLayers {
		var err error
		if unit, err = runMicro(tr, root, microConfig(opt)); err != nil {
			fmt.Fprintf(stderr, "bench: micro-suite: %v\n", err)
			return 1
		}
	}
	rep := report{Header: hdr}
	for _, w := range selected {
		res, err := benchWorkload(w, opt, wantE2E, wantLayers, unit, tr, root)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			for _, f := range res.Failures {
				fmt.Fprintln(stderr, "FAILED CHECK:", f)
			}
			return 1
		}
		printResult(stderr, res)
		rep.Results = append(rep.Results, res)
		// The contract's result line: the last line of standard output.
		line, _ := json.Marshal(struct {
			Correct   bool                 `json:"correct"`
			Attempted int                  `json:"attempted"`
			Failed    int                  `json:"failed"`
			Metrics   map[string]valueUnit `json:"metrics"`
		}{res.Correct, res.Attempted, res.Failed, slim(res.Metrics)})
		fmt.Fprintf(stdout, "%s\n", line)
	}
	tr.end(root)
	rep.Header.WallS = time.Since(started).Seconds()
	fmt.Fprintf(stderr, "# whole invocation: %.1f s\n", rep.Header.WallS)

	if *outPath != "" {
		if err := writeJSON(*outPath, rep); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err == nil {
			err = tr.writeChrome(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench: writing %s: %v\n", *traceOut, err)
			return 1
		}
	}
	return exitStatus(rep.Results)
}

// exitStatus is non-zero when any run of any workload errored or failed
// an output check.
func exitStatus(results []result) int {
	for _, res := range results {
		if !res.Correct {
			return 1
		}
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i := range workloads {
		names[i] = workloads[i].name
	}
	return names
}

// microConfig sizes the micro-suite so that it takes about a third of a
// workload's measuring time: ~45 cases of 3 samples each.
func microConfig(opt options) microCfg {
	if opt.smoke {
		return microCfg{samples: 1, dur: time.Millisecond, smoke: true}
	}
	return microCfg{samples: 3, dur: time.Duration(opt.seconds * float64(time.Second) / 500)}
}

func runMicro(tr *tracer, parent int, c microCfg) (metricSet, error) {
	out := metricSet{}
	suite := tr.begin(parent, "micro-suite")
	defer tr.end(suite)
	for _, mc := range microSuite {
		id := tr.begin(suite, mc.name)
		err := mc.run(c, out)
		tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", mc.name, err)
		}
	}
	return out, nil
}

// benchWorkload runs one workload. End-to-end metrics always come from
// untraced rounds; when only layers are wanted the rounds are fewer.
func benchWorkload(w *workload, opt options, wantE2E, wantLayers bool, unit metricSet, tr *tracer, parent int) (result, error) {
	r := newRunner(w, opt, tr, parent)
	budget := time.Duration(opt.seconds * float64(time.Second))
	minRounds := 3
	if !wantE2E {
		budget /= 3
	}
	if opt.smoke {
		budget, minRounds = 0, 1
	}
	all := r.rounds(budget, minRounds)
	rs := cleanRounds(all)
	metrics := metricSet{}
	var defs []metricDef
	var err error
	if len(rs) == 0 {
		err = errors.New("no round completed with correct outputs")
	}
	if wantE2E && err == nil {
		defs = append(defs, endToEndDefs...)
		endToEnd(rs, metrics)
	}
	if wantLayers && err == nil {
		defs = append(defs, perLayerDefs()...)
		err = r.perLayer(rs, unit, metrics)
	}
	res := r.finish(all, metrics)
	if err == nil {
		err = checkComplete(defs, metrics)
	}
	return res, err
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func slim(ms metricSet) map[string]valueUnit {
	out := make(map[string]valueUnit, len(ms))
	for name, m := range ms {
		out[name] = valueUnit{m.Value, m.Unit}
	}
	return out
}

func printResult(w io.Writer, res result) {
	fmt.Fprintf(w, "\n## %s: %d rounds, %d runs attempted, %d failed\n", res.Workload, res.Rounds, res.Attempted, res.Failed)
	for _, f := range res.Failures {
		fmt.Fprintln(w, "FAILED CHECK:", f)
	}
	for _, name := range res.Metrics.names() {
		m := res.Metrics[name]
		fmt.Fprintf(w, "%-34s %14.6g %-8s", name, m.Value, m.Unit)
		if s := m.Samples; s != nil {
			fmt.Fprintf(w, " n=%d min %.6g q1 %.6g median %.6g q3 %.6g max %.6g", s.N, s.Min, s.Q1, s.Median, s.Q3, s.Max)
		}
		fmt.Fprintln(w)
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
