package analysis

import (
	"os"
	"path/filepath"
	"testing"
)

// allProfiles evaluates every recorded golden graph at its committed
// worker counts, by profile name.
func allProfiles(t *testing.T) map[string]*Profile {
	t.Helper()
	graphs := goldenGraphs(t)
	profiles := make(map[string]*Profile)
	for _, r := range Goldens() {
		for _, w := range r.Profiles {
			p := ProfileGraph(graphs[r.Name], w)
			p.Name = ProfileName(r.Name, w, len(r.Profiles) > 1)
			profiles[p.Name] = p
		}
	}
	return profiles
}

// TestGoldenPerfProfiles locks the performance profiles of every driver
// against the committed goldens, so any change to the recorded task
// structure shows up as a reviewable perf diff. Refresh with:
//
//	go run ./cmd/amrperf -update internal/analysis/testdata/golden/perf
func TestGoldenPerfProfiles(t *testing.T) {
	profiles := allProfiles(t)
	want := []string{"dataflow", "exchange", "loop-w16", "loop-w1",
		"hydro-dataflow", "hydro-loop-w16", "hydro-loop-w1"}
	if len(profiles) != len(want) {
		t.Errorf("evaluated %d profiles, want %d", len(profiles), len(want))
	}
	for _, name := range want {
		p := profiles[name]
		if p == nil {
			t.Errorf("profile %s not evaluated", name)
			continue
		}
		path := filepath.Join("testdata", "golden", "perf", name+".txt")
		golden, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing perf golden (refresh with cmd/amrperf -update): %v", err)
		}
		if text := p.Text(); text != string(golden) {
			t.Errorf("profile %s diverges from %s:\n--- got ---\n%s--- want ---\n%s",
				name, path, text, golden)
		}
	}
}

// TestDataflowWidthBeatsForkJoin pins the paper's core claim in the
// model: on the same configuration, whole-DAG data-flow execution exposes
// strictly more concurrency than fork-join's barrier-composed regions,
// which in turn beat the same loop driver on the MPI-only rank's one
// worker — for both applications.
func TestDataflowWidthBeatsForkJoin(t *testing.T) {
	profiles := allProfiles(t)
	for _, app := range []struct{ df, fj, serial string }{
		{"dataflow", "loop-w16", "loop-w1"},
		{"hydro-dataflow", "hydro-loop-w16", "hydro-loop-w1"},
	} {
		df, fj, serial := profiles[app.df], profiles[app.fj], profiles[app.serial]
		if df == nil || fj == nil || serial == nil {
			t.Fatalf("missing profiles for %v", app)
		}
		if df.Mode != "dataflow" || fj.Mode != "barrier" || serial.Mode != "barrier" {
			t.Errorf("modes: %s=%s %s=%s %s=%s", app.df, df.Mode, app.fj, fj.Mode, app.serial, serial.Mode)
		}
		if df.MaxWidth <= fj.MaxWidth {
			t.Errorf("%s max width %d does not exceed %s max width %d",
				app.df, df.MaxWidth, app.fj, fj.MaxWidth)
		}
		if df.Span >= fj.Span {
			t.Errorf("%s span %d is not shorter than %s span %d",
				app.df, df.Span, app.fj, fj.Span)
		}
		if df.SpeedupBound <= fj.SpeedupBound {
			t.Errorf("%s speedup bound %v does not exceed %s bound %v",
				app.df, df.SpeedupBound, app.fj, fj.SpeedupBound)
		}
		if serial.MaxWidth != 1 || serial.SpeedupBound != 1 {
			t.Errorf("%s width %d / bound %v, want the serial rank's 1/1",
				app.serial, serial.MaxWidth, serial.SpeedupBound)
		}
		// Same configuration, same messages: the variants differ in
		// scheduling, not in what they communicate.
		if df.Sends != fj.Sends || fj.Sends != serial.Sends || df.Collectives != fj.Collectives {
			t.Errorf("communication diverges across variants: sends %d / %d / %d, collectives %d / %d",
				df.Sends, fj.Sends, serial.Sends, df.Collectives, fj.Collectives)
		}
	}
}
