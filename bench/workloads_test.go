package main

import (
	"bytes"
	"testing"

	"miniamr/internal/driver"
	"miniamr/internal/harness"
)

// encoded is every variant's input of a workload as the applications
// receive it.
func encoded(t *testing.T, w *workload, seed uint64, smoke bool) []byte {
	t.Helper()
	var all []byte
	mk := w.job(seed, smoke)
	for _, v := range variants {
		_, cfg, err := driver.EncodeJob(mk(v, nil))
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, cfg...)
	}
	return all
}

func TestSeedDrivesInputs(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		if !bytes.Equal(encoded(t, w, 7, false), encoded(t, w, 7, false)) {
			t.Errorf("%s: the same seed gave different inputs", w.name)
		}
		if bytes.Equal(encoded(t, w, 7, false), encoded(t, w, 8, false)) {
			t.Errorf("%s: two seeds gave the same inputs", w.name)
		}
	}
}

// Every seed must give a valid problem of the same size: the driver
// measures the spread of each metric across seeds.
func TestSeedsKeepTheWork(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		var ref harness.Metrics
		for seed := uint64(1); seed <= 8; seed++ {
			m, err := harness.Run(w.serialSpec(w.job(seed, true)))
			if err != nil {
				t.Fatalf("%s seed %d: %v", w.name, seed, err)
			}
			if seed == 1 {
				ref = m
				continue
			}
			if m.FinalBlocks != ref.FinalBlocks || m.Flops != ref.Flops {
				t.Errorf("%s seed %d: %d blocks %d flops, seed 1 has %d and %d",
					w.name, seed, m.FinalBlocks, m.Flops, ref.FinalBlocks, ref.Flops)
			}
		}
	}
}

func TestTopologyUsesFourCores(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		mk := w.job(1, true)
		for _, v := range variants {
			s := w.spec(mk, v, 0, nil)
			if got := s.Nodes * s.RanksPerNode * s.CoresPerRank; got != virtualCores {
				t.Errorf("%s %s: %d virtual cores", w.name, v, got)
			}
		}
	}
}
