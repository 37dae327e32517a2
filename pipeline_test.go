package spq

import (
	"fmt"
	"testing"

	"spq/internal/core"
	"spq/internal/data"
	"spq/internal/geo"
	"spq/internal/mapreduce"
)

// TestQueryPipelineMatrix checks every way a query can reach its MapReduce
// job against the brute-force oracle core.NaiveCentralized over the
// records the query can see: storage (text, SPQ3, memory) × plan
// (unplanned, WithAutoPlan) × delta (none, visible, present but hidden by
// WithDelta(false)) × query (matching keywords, a keyword that occurs
// nowhere) × algorithm. Beyond results it checks the report shape of
// every cell: Plan is set exactly for planned queries, Delta.Records is
// the visible delta, and a planner-proven-empty query reads no input.
func TestQueryPipelineMatrix(t *testing.T) {
	dataObjs, feats := clusteredCorpus(2400, 6)
	// The last sixth of each dataset arrives after the seal, as the delta.
	baseD, deltaD := dataObjs[:1000], dataObjs[1000:]
	baseF, deltaF := feats[:1000], feats[1000:]
	queries := []Query{
		{K: 6, Radius: 0.04, Keywords: []string{"c2-kw9", "common3"}},
		{K: 4, Radius: 0.05, Keywords: []string{"zzz-occurs-nowhere"}},
	}
	deltas := []struct {
		name            string
		appended, shown bool
	}{
		{"none", false, false},
		{"visible", true, true},
		{"hidden", true, false},
	}
	storages := []struct {
		name string
		st   Storage
	}{{"text", StorageDFS}, {"spq3", StorageDFSBinary}, {"mem", StorageMemory}}
	for _, sm := range storages {
		for _, dm := range deltas {
			e := NewEngine(Config{Storage: sm.st, Nodes: 4, BlockSize: 4 << 10, Seed: 5, CompactAfter: -1})
			if err := e.AddData(baseD...); err != nil {
				t.Fatal(err)
			}
			if err := e.AddFeature(baseF...); err != nil {
				t.Fatal(err)
			}
			if err := e.Seal(); err != nil {
				t.Fatal(err)
			}
			visD, visF := baseD, baseF
			if dm.appended {
				if err := e.AddData(deltaD...); err != nil {
					t.Fatal(err)
				}
				if err := e.AddFeature(deltaF...); err != nil {
					t.Fatal(err)
				}
			}
			var wantDelta int64
			if dm.shown {
				visD, visF = dataObjs, feats
				wantDelta = int64(len(deltaD) + len(deltaF))
			}
			objs := make([]data.Object, 0, len(visD)+len(visF))
			for _, d := range visD {
				objs = append(objs, data.Object{Kind: data.DataObject, ID: d.ID, Loc: geo.Point{X: d.X, Y: d.Y}})
			}
			for _, f := range visF {
				objs = append(objs, toFeatureObject(f, e.dict))
			}
			for qi, q := range queries {
				oracle := toResults(core.NaiveCentralized(objs, core.Query{
					K: q.K, Radius: q.Radius, Keywords: e.dict.LookupAll(q.Keywords)}))
				if (len(oracle) == 0) != (qi == 1) {
					t.Fatalf("q%d: oracle returned %d results", qi, len(oracle))
				}
				for _, planned := range []bool{false, true} {
					for _, alg := range Algorithms() {
						name := fmt.Sprintf("%s delta=%s q%d planned=%v %v", sm.name, dm.name, qi, planned, alg)
						opts := []QueryOption{WithAlgorithm(alg), WithCache(false), WithDelta(dm.shown)}
						if planned {
							opts = append(opts, WithAutoPlan())
						}
						rep, err := e.QueryReport(q, opts...)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						if !resultsEqual(rep.Results, oracle) {
							t.Errorf("%s: differs from the oracle\ngot:    %+v\noracle: %+v", name, rep.Results, oracle)
						}
						if (rep.Plan != nil) != planned {
							t.Errorf("%s: Plan = %+v, want set iff planned", name, rep.Plan)
						}
						if rep.Delta == nil || rep.Delta.Records != wantDelta {
							t.Errorf("%s: Delta = %+v, want %d visible records", name, rep.Delta, wantDelta)
						}
						if planned && qi == 1 && rep.Plan.RecordsSelected != 0 {
							t.Errorf("%s: plan selected %d records for a keyword that occurs nowhere", name, rep.Plan.RecordsSelected)
						}
						if rep.Plan != nil && rep.Plan.RecordsSelected == 0 {
							if n := rep.Counters[mapreduce.CounterMapRecordsIn]; n != 0 {
								t.Errorf("%s: planner-proven-empty query read %d records", name, n)
							}
						}
					}
				}
			}
		}
	}
}
