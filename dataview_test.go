package spq

import (
	"fmt"
	"testing"

	"spq/internal/core"
	"spq/internal/data"
	"spq/internal/geo"
)

// TestDataViewSharedAcrossKeywordSets: the data view is keyed on
// (generation, grid) alone, and the planner sizes the grid from the
// generation, so delta-free planned queries with different keywords — and
// therefore different selectivity and pruned data-block selections — reuse
// one view built over all the generation's data blocks. Only the query
// that built it counts a view build. Results stay identical to the
// view-less text storage path and to the brute-force oracle for every
// algorithm and scoring mode.
func TestDataViewSharedAcrossKeywordSets(t *testing.T) {
	const n, clusters = 6000, 6
	dataObjs, feats := clusteredCorpus(n, clusters)
	load := func(st Storage) *Engine {
		e := NewEngine(Config{Storage: st, Nodes: 4, BlockSize: 4 << 10, Seed: 9})
		if err := e.AddData(dataObjs...); err != nil {
			t.Fatal(err)
		}
		if err := e.AddFeature(feats...); err != nil {
			t.Fatal(err)
		}
		if err := e.Seal(); err != nil {
			t.Fatal(err)
		}
		return e
	}
	ev := load(StorageDFSBinary)
	ref := load(StorageDFS)
	defer ev.Close()
	defer ref.Close()
	if ref.viewCache != nil {
		t.Fatal("text storage must not use data views")
	}

	// Keyword sets local to two different clusters: each plan keeps a
	// different small set of data blocks.
	kwSets := [][]string{{"c0-kw5"}, {"c1-kw7", "c1-kw9"}}
	const radius = 0.02
	var gridN int
	var blocks []string
	for i, kws := range kwSets {
		rep, err := ev.QueryReport(Query{K: 5, Radius: radius, Keywords: kws}, WithAutoPlan(), WithCache(false))
		if err != nil {
			t.Fatal(err)
		}
		if rep.Plan.RecordsSelected >= rep.Plan.RecordsTotal/2 || rep.Plan.BlocksPruned == 0 {
			t.Fatalf("query %v is not selective: %+v", kws, rep.Plan)
		}
		if i == 0 {
			gridN = rep.Plan.GridN
		} else if rep.Plan.GridN != gridN {
			t.Fatalf("planner grids differ (%d vs %d) on one generation", gridN, rep.Plan.GridN)
		}
		if wantBuilds := int64(1 - i); rep.Counters[CounterViewBuilds] != wantBuilds {
			t.Fatalf("query %d counted %d view builds, want %d", i+1, rep.Counters[CounterViewBuilds], wantBuilds)
		}
		blocks = append(blocks, fmt.Sprint(rep.Plan.RecordsSelected, rep.Plan.BlocksPruned))
		hits, misses, entries, records := ev.viewCache.Stats()
		if misses != 1 || hits != int64(i) || entries != 1 {
			t.Fatalf("after query %d: view cache hits %d misses %d entries %d, want %d/1/1", i+1, hits, misses, entries, i)
		}
		if records != len(dataObjs) {
			t.Fatalf("view holds %d records, want all %d data objects", records, len(dataObjs))
		}
	}
	if blocks[0] == blocks[1] {
		t.Fatalf("both keyword sets selected the same blocks (%s); the test needs different selections", blocks[0])
	}

	// The oracle scores the raw objects with the engine's keyword ids.
	var objs []data.Object
	for _, d := range dataObjs {
		objs = append(objs, data.Object{Kind: data.DataObject, ID: d.ID, Loc: geo.Point{X: d.X, Y: d.Y}})
	}
	for _, f := range feats {
		objs = append(objs, toFeatureObject(f, ev.dict))
	}
	type run struct {
		alg  Algorithm
		mode ScoringMode
	}
	var runs []run
	for _, alg := range Algorithms() {
		runs = append(runs, run{alg, ScoreRange}, run{alg, ScoreInfluence})
	}
	runs = append(runs, run{PSPQ, ScoreNearest})
	for _, kws := range kwSets {
		for _, rn := range runs {
			q := Query{K: 5, Radius: radius, Keywords: kws, Mode: rn.mode}
			got, err := ev.Query(q, WithAlgorithm(rn.alg), WithAutoPlan(), WithCache(false))
			if err != nil {
				t.Fatalf("%v %v %v: %v", kws, rn.alg, rn.mode, err)
			}
			want, err := ref.Query(q, WithAlgorithm(rn.alg), WithAutoPlan(), WithGrid(gridN), WithCache(false))
			if err != nil {
				t.Fatalf("%v %v %v reference: %v", kws, rn.alg, rn.mode, err)
			}
			if len(got) == 0 {
				t.Fatalf("%v %v %v: no results", kws, rn.alg, rn.mode)
			}
			if !resultsEqual(got, want) {
				t.Errorf("%v %v %v: view path differs from text storage\nview: %+v\ntext: %+v", kws, rn.alg, rn.mode, got, want)
			}
			oracle := toResults(core.NaiveCentralized(objs, core.Query{
				K: q.K, Radius: q.Radius, Keywords: ev.dict.InternAll(kws), Mode: q.Mode}))
			if !resultsEqual(got, oracle) {
				t.Errorf("%v %v %v: view path differs from the oracle\nview:   %+v\noracle: %+v", kws, rn.alg, rn.mode, got, oracle)
			}
		}
	}
	// Every query above ran on the same grid: still exactly one view.
	if _, misses, entries, _ := ev.viewCache.Stats(); misses != 1 || entries != 1 {
		t.Errorf("view cache misses %d entries %d after all queries, want 1/1", misses, entries)
	}
}
