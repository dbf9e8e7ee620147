package driver_test

import (
	"fmt"
	"strings"
	"testing"

	"miniamr/internal/cluster"
	"miniamr/internal/driver"
	"miniamr/internal/mpi"
	"miniamr/internal/sanitize"
	"miniamr/internal/simnet"
	"miniamr/internal/task"
)

// TestEngineNamesRegionsForTheSanitizer drives the graph engine's handle API
// into two violations and checks that the findings call the regions what the
// driver's Describe calls them, not their numbers: an undeclared conflicting
// write, and one buffer bound under two regions within a binding scope (and
// legitimately rebound in the next).
func TestEngineNamesRegionsForTheSanitizer(t *testing.T) {
	w := mpi.NewWorld(cluster.MustNew(1, 1, 2), simnet.None())
	san := sanitize.New(sanitize.Options{})
	err := w.Run(func(c *mpi.Comm) {
		g, err := driver.NewGraphEngine(driver.GraphOptions{
			Comm: c, Workers: 2, ScratchLen: 1, Sanitizer: san,
			Describe: func(r task.Region) string { return fmt.Sprintf("cell %d", r.Index()) },
		})
		if err != nil {
			panic(err)
		}
		cells := g.Reserve(3)
		gate := make(chan struct{})
		g.Spawn("declared", func(t *task.Task) {
			g.NoteWrite(t, cells+1)
			<-gate
		}, g.Out(cells+1)...)
		g.Spawn("undeclared", func(t *task.Task) {
			g.NoteWrite(t, cells+1)
			close(gate)
		})
		buf := make([]float64, 4)
		g.BindSection(cells, buf)
		g.BindSection(cells, buf)
		g.BindSection(cells+2, buf) // the same storage under a second region
		g.ResetBindings()
		g.BindSection(cells+1, buf) // a new scope: recycled storage is fine
		g.Wait()
		g.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
	var race, alias bool
	for _, r := range san.Finish() {
		switch {
		case r.Check == sanitize.KindDepRace && r.Key == "cell 1": // filed on whichever task notes second
			race = true
		case r.Check == sanitize.KindKeyAlias && r.Key == "cell 2" && strings.Contains(r.Msg, "distinct key cell 0"):
			alias = true
		default:
			t.Errorf("unexpected finding: %v", r)
		}
	}
	if !race || !alias {
		t.Errorf("dep-race on cell 1 reported: %v, key-alias of cell 2 with cell 0 reported: %v", race, alias)
	}
}
