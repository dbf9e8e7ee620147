package analysis

import (
	"slices"
	"strings"
	"testing"

	"miniamr/internal/task"
)

// graphlint and perflint check recorded graphs, not source, so their
// corpora are event scripts: each case replays a two-rank run's events
// through the recorder's own observer and monitor methods, seeding at most
// one defect. TestAnalyzersOnCorpora asserts an exact match: the seeded
// case yields exactly its rule, with the wanted message, and the clean
// case yields nothing.

// script feeds one run's events to a recorder.
type script struct{ rec *recorder }

// region names the regions of a script; the first word is the class.
var regionNames []string

func reg(name string) task.Region {
	if i := slices.Index(regionNames, name); i >= 0 {
		return task.Region(i)
	}
	regionNames = append(regionNames, name)
	return task.Region(len(regionNames) - 1)
}

func in(name string) task.Access    { return task.Access{Mode: task.ModeIn, Region: reg(name)} }
func out(name string) task.Access   { return task.Access{Mode: task.ModeOut, Region: reg(name)} }
func inout(name string) task.Access { return task.Access{Mode: task.ModeInOut, Region: reg(name)} }

func (s script) phase(rank int, name string) { s.rec.ranks[rank].enter(name) }

func (s script) spawn(rank int, label string, accs ...task.Access) {
	s.rec.ranks[rank].TaskSpawned(1, label, accs)
}

func (s script) wait(rank int, label string, accs ...task.Access) {
	s.rec.ranks[rank].TaskSpawned(0, label, accs)
}

func (s script) allreduce(rank int) { s.rec.CollectiveEnter(rank, "Allreduce", "sum", 0, 1, 0) }

// clean is a well-formed compute phase on both ranks: two stencil tasks,
// their checksums, a wait on the partial sums next to the reduction, and
// one halo message from rank 0 to rank 1.
func clean(s script) {
	for rank := range 2 {
		s.phase(rank, "compute")
		for _, b := range []string{"0", "1"} {
			s.spawn(rank, "stencil", out("block "+b))
			s.spawn(rank, "checksum", in("block "+b), out("part "+b))
		}
		s.wait(rank, "wait-sums", in("part 0"), in("part 1"))
		s.allreduce(rank)
	}
	s.rec.MessageSent(0, 1, 7)
	s.rec.RecvPosted(1, 0, 7)
}

type graphCase struct {
	name     string
	run      func(script)
	rule     string // "" for no finding
	contains string
}

var graphCorpora = map[string][]graphCase{
	"graphlint": {
		{name: "clean", run: clean},
		{name: "cycle", rule: "cycle", contains: "dependency cycle", run: func(s script) {
			s.phase(0, "compute")
			s.spawn(0, "a", out("x 0"))
			s.spawn(0, "b", in("x 0"), out("y 0"))
			s.spawn(0, "a", in("y 0"))
		}},
		{name: "orphan-read", rule: "orphan-read", contains: "read-before-write", run: func(s script) {
			s.phase(0, "compute")
			s.spawn(0, "stencil", in("block 0"))
		}},
		{name: "dead-write", rule: "dead-write", contains: "dead write", run: func(s script) {
			s.phase(0, "compute")
			s.spawn(0, "stencil", out("block 0"))
		}},
		{name: "unpaired-send", rule: "unpaired-send", contains: "unmatched message", run: func(s script) {
			s.phase(0, "communicate")
			s.rec.MessageSent(0, 1, 5)
		}},
		{name: "unpaired-recv", rule: "unpaired-recv", contains: "unmatched receive", run: func(s script) {
			s.phase(1, "communicate")
			s.rec.RecvPosted(1, 0, 5)
		}},
		{name: "collective-sequence", rule: "collective-sequence", contains: "collective-mismatch deadlock", run: func(s script) {
			s.phase(0, "checksum")
			s.allreduce(0)
		}},
	},
	"perflint": {
		{name: "clean", run: clean},
		{name: "needless-barrier", rule: "perf-needless-barrier", contains: "pure barrier", run: func(s script) {
			s.phase(0, "compute")
			s.spawn(0, "stencil", out("block 0"))
			s.wait(0, "wait-all", in("block 0"))
		}},
		{name: "serial-funnel", rule: "perf-serial-funnel", contains: "width 1", run: func(s script) {
			s.phase(0, "compute")
			s.spawn(0, "stencil", out("block 0"))
			s.spawn(0, "stencil", out("block 1"))
			s.spawn(0, "gather", in("block 0"), in("block 1"), out("sum 0"))
			s.spawn(0, "scale", in("sum 0"))
			s.spawn(0, "scale", in("sum 0"))
		}},
		{name: "wide-key", rule: "perf-wide-key", contains: "give every instance its own region", run: func(s script) {
			s.phase(0, "compute")
			s.spawn(0, "init", out("block 0"))
			s.spawn(0, "stencil", inout("block 0"))
			s.spawn(0, "stencil", inout("block 0"))
			s.spawn(0, "use", in("block 0"))
		}},
	},
}

// runGraphCorpus replays every case of the analyzer's corpus. A perflint
// case must also record clean under graphlint, so each seeds one defect.
func runGraphCorpus(t *testing.T, analyzer string) {
	for _, c := range graphCorpora[analyzer] {
		t.Run(c.name, func(t *testing.T) {
			rec := &recorder{sends: map[[3]int]int{}, recvs: map[[3]int]int{}}
			for rank := range 2 {
				rec.ranks = append(rec.ranks, &rankLog{rank: rank, rec: rec, invs: []invocation{{phase: "setup"}},
					name: func(r task.Region) string { return regionNames[r] }})
			}
			c.run(script{rec})
			g, findings := build(Recording{Name: analyzer + "/" + c.name, Ranks: 2, Workers: 1}, rec)
			if analyzer == "perflint" {
				for _, f := range findings {
					t.Errorf("perflint case records a graphlint finding: %s", f)
				}
				findings = PerfLint(g)
			}
			if c.rule == "" {
				for _, f := range findings {
					t.Errorf("unexpected finding: %s", f)
				}
				return
			}
			if len(findings) != 1 {
				t.Fatalf("findings %v, want exactly one %s/%s", findings, analyzer, c.rule)
			}
			if f := findings[0]; f.ID() != analyzer+"/"+c.rule || !strings.Contains(f.Message, c.contains) {
				t.Errorf("finding %s (%s), want %s/%s containing %q", f.ID(), f.Message, analyzer, c.rule, c.contains)
			}
		})
	}
}
