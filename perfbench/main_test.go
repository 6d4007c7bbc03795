package main

import (
	"encoding/json"
	"os"
	"testing"
)

// manifest is the part of BENCHMARK.json the program must agree with.
type manifest struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestSmoke runs every workload in both modes on a few campaigns with all
// checks on, under the default seed and a held-out one, and checks that
// each run reports exactly the metrics BENCHMARK.json declares and that
// the stream digest repeats for the same seed.
func TestSmoke(t *testing.T) {
	m := readManifest(t)
	list := workloadList()
	if len(list) != len(m.Workloads) {
		t.Fatalf("program has %d workloads, BENCHMARK.json %d", len(list), len(m.Workloads))
	}
	for i, w := range list {
		if w.name != m.Workloads[i].Name {
			t.Errorf("workload %d: program %q, BENCHMARK.json %q", i, w.name, m.Workloads[i].Name)
		}
	}
	modes := []struct {
		traced bool
		want   map[string]string
	}{{false, map[string]string{}}, {true, map[string]string{}}}
	for _, e := range m.EndToEnd {
		modes[0].want[e.Name] = e.Unit
	}
	for _, e := range m.PerLayer {
		modes[1].want[e.Name] = e.Unit
	}

	work := t.TempDir()
	for _, w := range m.Workloads {
		for _, mode := range modes {
			digests := map[uint64]string{}
			for _, seed := range []uint64{1, 2, 1} {
				res, rep, err := measure(w.Name, seed, 1, mode.traced, true, work)
				if err != nil {
					t.Fatalf("%s traced=%v seed %d: %v", w.Name, mode.traced, seed, err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("%s traced=%v seed %d: correct=%v attempted=%d failed=%d errors=%v",
						w.Name, mode.traced, seed, res.Correct, res.Attempted, res.Failed, rep.Errors)
				}
				if rep.Seed != seed || rep.Checked == 0 {
					t.Errorf("%s seed %d: report seed %d, %d campaigns checked offline", w.Name, seed, rep.Seed, rep.Checked)
				}
				if len(res.Metrics) != len(mode.want) {
					t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json declares %d", w.Name, mode.traced, len(res.Metrics), len(mode.want))
				}
				for name, unit := range mode.want {
					if got, ok := res.Metrics[name]; !ok || got.Unit != unit {
						t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", w.Name, mode.traced, name, got, unit)
					}
				}
				if d, ok := digests[seed]; ok && d != rep.Digest {
					t.Errorf("%s traced=%v seed %d: stream digest changed between runs: %s then %s",
						w.Name, mode.traced, seed, d, rep.Digest)
				}
				digests[seed] = rep.Digest
			}
			if digests[1] == digests[2] {
				t.Errorf("%s: seeds 1 and 2 streamed identical bytes", w.Name)
			}
		}
	}
}
