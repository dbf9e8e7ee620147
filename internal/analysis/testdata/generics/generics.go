// Fixture for the loader's generics coverage: the shapes the runtime
// uses or used — a type-parameterised reduction (driver.CombineSums while
// it folded a keyed map) and a generic struct with pointer-receiver
// methods (driver.Plans[S]) — must type-check under the tolerant loader well enough for every
// analyzer to walk them without spurious findings.
package generics

import "sort"

// combineSums is the keyed form driver.CombineSums had: a fold over an
// explicit key slice, so the map is only indexed, never ranged.
func combineSums[K comparable](vars int, blocks []K, perBlock map[K][]float64) []float64 {
	out := make([]float64, vars)
	for _, k := range blocks {
		sums := perBlock[k]
		for v := range sums {
			out[v] += sums[v]
		}
	}
	return out
}

// plan and plans mirror driver.Plan[S]/driver.Plans[S]: a generic
// container with pointer-receiver methods.
type plan[S any] struct {
	peer  int
	stage S
}

type plans[S any] struct {
	send []plan[S]
	recv []plan[S]
}

func (p *plans[S]) reset() {
	p.send = p.send[:0]
	p.recv = p.recv[:0]
}

func (p *plans[S]) add(peer int, stage S) {
	p.send = append(p.send, plan[S]{peer: peer, stage: stage})
}

// sortedKeys instantiates a generic helper over an ordered constraint.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// use ties the instantiations together so the fixture exercises generic
// instantiation, not just declaration.
func use() ([]float64, []string) {
	per := map[int][]float64{0: {1, 2}, 1: {3, 4}}
	var p plans[string]
	p.add(1, "ghost")
	p.reset()
	return combineSums(2, []int{0, 1}, per), sortedKeys(map[string]int{"a": 1})
}
