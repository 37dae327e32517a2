package main

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// benchmarkFile is the part of ../BENCHMARK.json the tests check against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

func tinyRun(t *testing.T, workload string, trace bool) options {
	return options{workload: workload, seed: 7, window: time.Second, trace: trace, out: t.TempDir(), scale: scales["tiny"]}
}

// Every workload BENCHMARK.json lists runs at tiny scale, passes the
// oracle check and emits exactly the listed metrics with their units:
// the end-to-end ones untraced, the per-layer ones traced.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	bench := loadBenchmark(t)
	if len(bench.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bench.Workloads), len(workloads))
	}
	for _, wl := range bench.Workloads {
		for _, trace := range []bool{false, true} {
			want := bench.EndToEnd
			if trace {
				want = bench.PerLayer
			}
			res, _, err := run(tinyRun(t, wl.Name, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.Name, trace, err)
			}
			if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", wl.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", wl.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s has unit %q, BENCHMARK.json says %q", wl.Name, trace, m.Name, got.Unit, m.Unit)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics emitted, BENCHMARK.json lists %d", wl.Name, trace, len(res.Metrics), len(want))
			}
			// Layers every workload runs must report work.
			for _, name := range []string{"plan.ms", "data.decode_ms", "mapreduce.map_ms", "trace.qps_traced"} {
				if trace && res.Metrics[name].Value <= 0 {
					t.Errorf("%s: %s = %v, want > 0", wl.Name, name, res.Metrics[name].Value)
				}
			}
		}
	}
}

// A reference that disagrees with the engine must fail the run: the
// second run reads its references from the cache the first one wrote, with
// one score damaged.
func TestCorruptedReferenceFailsTheRun(t *testing.T) {
	o := tinyRun(t, "selective", false)
	if _, _, err := run(o); err != nil {
		t.Fatal(err)
	}
	paths, err := filepath.Glob(filepath.Join(o.out, "refs", "*.json"))
	if err != nil || len(paths) != 1 {
		t.Fatalf("reference cache files %v, %v; want one", paths, err)
	}
	b, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	var refs map[string][]refItem
	if err := json.Unmarshal(b, &refs); err != nil {
		t.Fatal(err)
	}
	damaged := false
	for k, r := range refs {
		if len(r) > 0 {
			r[0].Score += 0.5
			refs[k], damaged = r, true
			break
		}
	}
	if !damaged {
		t.Fatal("no non-empty reference to damage")
	}
	if b, err = json.Marshal(refs); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(paths[0], b, 0o644); err != nil {
		t.Fatal(err)
	}
	res, _, err := run(o)
	if !errors.Is(err, errMismatch) {
		t.Fatalf("run with a corrupted reference returned %v, want a mismatch", err)
	}
	if res == nil || res.Correct {
		t.Fatal("run with a corrupted reference reported correct")
	}
}

// A response sees the appended records of the first append call whose
// generation is at least the response's: a compaction inside a call bumps
// the generation twice without changing what is visible.
func TestAppendVisibility(t *testing.T) {
	a := &appender{baseGen: 5, commits: []commit{{gen: 6, records: 2}, {gen: 8, records: 4}, {gen: 9, records: 6}}}
	for gen, want := range map[uint64]int{3: 0, 5: 0, 6: 2, 7: 4, 8: 4, 9: 6} {
		got, err := a.visible(gen)
		if err != nil || got != want {
			t.Errorf("visible(%d) = %d, %v; want %d", gen, got, err, want)
		}
	}
	if _, err := a.visible(10); err == nil {
		t.Error("visible(10) beyond the last append succeeded")
	}
}
