package sanitize_test

import (
	"strings"
	"testing"

	"miniamr/internal/sanitize"
	"miniamr/internal/sanitize/testdata/scenarios"
)

func kinds(reports []sanitize.Report) map[sanitize.Kind]int {
	m := make(map[sanitize.Kind]int)
	for _, r := range reports {
		m[r.Check]++
	}
	return m
}

// find returns the first report of the given kind, failing the test if
// the scenario did not produce one.
func find(t *testing.T, reports []sanitize.Report, k sanitize.Kind) sanitize.Report {
	t.Helper()
	for _, r := range reports {
		if r.Check == k {
			return r
		}
	}
	t.Fatalf("no %s report; got %v", k, reports)
	return sanitize.Report{}
}

func TestUndeclaredOverlap(t *testing.T) {
	reports := scenarios.UndeclaredOverlap()
	r := find(t, reports, sanitize.KindDepRace)
	if r.Rank != 0 {
		t.Errorf("rank = %d, want 0", r.Rank)
	}
	if r.Key != "block{0}" {
		t.Errorf("key = %q, want block{0}", r.Key)
	}
	if !strings.Contains(r.Msg, "writer-declared") && !strings.Contains(r.Task, "writer-declared") {
		t.Errorf("report does not name writer-declared: %v", r)
	}
	if r.Stack == "" {
		t.Error("dep-race report has no stack")
	}
	for k := range kinds(reports) {
		if k != sanitize.KindDepRace {
			t.Errorf("unexpected report kind %s", k)
		}
	}
}

func TestWriteViaIn(t *testing.T) {
	reports := scenarios.WriteViaIn()
	r := find(t, reports, sanitize.KindWriteViaIn)
	if r.Task != "sneaky-writer" {
		t.Errorf("task = %q, want sneaky-writer", r.Task)
	}
	if r.Key != "block{3}" {
		t.Errorf("key = %q, want block{3}", r.Key)
	}
	// A write through an in-declaration is also an undeclared write for
	// the race checker, but with no concurrent reader no race fires.
	for k := range kinds(reports) {
		if k != sanitize.KindWriteViaIn {
			t.Errorf("unexpected report kind %s", k)
		}
	}
}

func TestKeyAlias(t *testing.T) {
	reports := scenarios.KeyAlias()
	r := find(t, reports, sanitize.KindKeyAlias)
	if !strings.Contains(r.Msg, "section{0,east}") {
		t.Errorf("report does not name the first key: %v", r)
	}
	if r.Key != "section{1,west}" {
		t.Errorf("key = %q, want section{1,west}", r.Key)
	}
}

func TestStaleRegion(t *testing.T) {
	reports := scenarios.StaleRegion()
	r := find(t, reports, sanitize.KindStaleRegion)
	if r.Task != "kept-handle" {
		t.Errorf("task = %q, want kept-handle", r.Task)
	}
	if r.Key != "region 0" || !strings.Contains(r.Msg, "generation 0") || !strings.Contains(r.Msg, "now generation 1") {
		t.Errorf("report does not name the handle and both generations: %v", r)
	}
	if len(reports) != 1 {
		t.Errorf("want the stale handle only, got %v", reports)
	}
}

func TestUnreservedRegion(t *testing.T) {
	if got, want := scenarios.UnreservedRegion(), "task: region 2 not reserved (have 2)"; got != want {
		t.Errorf("Spawn panicked with %q, want %q", got, want)
	}
}

func TestTagMismatchDeadlock(t *testing.T) {
	reports := scenarios.TagMismatchDeadlock()
	r := find(t, reports, sanitize.KindDeadlock)
	if !strings.Contains(r.Msg, "rank 0") || !strings.Contains(r.Msg, "rank 1") {
		t.Errorf("deadlock report does not describe both ranks: %v", r)
	}
	// The audits must also explain the stuck messages: one unreceived
	// send (tag 5) and two dangling posted receives (tags 7 and 9).
	u := find(t, reports, sanitize.KindUnreceived)
	if u.Key != "tag 5" || u.Rank != 1 {
		t.Errorf("unreceived = %+v, want tag 5 at rank 1", u)
	}
	got := kinds(reports)
	if got[sanitize.KindDanglingRecv] != 2 {
		t.Errorf("dangling-recv count = %d, want 2 (tags 7 and 9)", got[sanitize.KindDanglingRecv])
	}
	// The stuck message still holds its arena lease, so a lease-leak
	// report is a legitimate consequence of the deadlock.
	for k := range got {
		switch k {
		case sanitize.KindDeadlock, sanitize.KindUnreceived,
			sanitize.KindDanglingRecv, sanitize.KindLeaseLeak:
		default:
			t.Errorf("unexpected report kind %s", k)
		}
	}
}

func TestDivergentAllreduce(t *testing.T) {
	reports := scenarios.DivergentAllreduce()
	r := find(t, reports, sanitize.KindCollectiveMismatch)
	if !strings.Contains(r.Msg, "Sum") || !strings.Contains(r.Msg, "Max") {
		t.Errorf("mismatch report does not name both ops: %v", r)
	}
	for k := range kinds(reports) {
		if k != sanitize.KindCollectiveMismatch {
			t.Errorf("unexpected report kind %s", k)
		}
	}
}

func TestReportString(t *testing.T) {
	r := sanitize.Report{
		Check: sanitize.KindDepRace,
		Rank:  2,
		Task:  "stencil",
		Key:   "block{7}",
		Msg:   "boom",
		Stack: "    at main",
	}
	s := r.String()
	for _, want := range []string{"dep-race", "rank 2", "stencil", "block{7}", "boom", "at main"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
	global := sanitize.Report{Check: sanitize.KindDeadlock, Rank: -1, Msg: "stuck"}
	if strings.Contains(global.String(), "rank") {
		t.Errorf("job-global report should not render a rank: %q", global.String())
	}
}

func TestFinishIdempotent(t *testing.T) {
	reports := scenarios.KeyAlias()
	if len(reports) != 1 {
		t.Fatalf("want exactly 1 report, got %v", reports)
	}
}
