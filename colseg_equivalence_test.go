package spq

import (
	"testing"

	"spq/internal/core"
	"spq/internal/data"
	"spq/internal/geo"
)

// TestColumnarMatchesRecordStorageProperty is the storage-format
// correctness property: the same corpus sealed as SPQ3 compressed
// segments (the binary format), as text records in the DFS (the
// paper-faithful Hadoop baseline) and as in-memory records returns
// byte-identical results for every algorithm, planned and unplanned, and
// those results equal the brute-force oracle core.NaiveCentralized. The
// format changes how records reach the map phase — column blocks fetched
// by zone-map offset versus parsed text lines or in-memory objects — and
// nothing else. For SPQ3 this also covers the posting-list pushdown:
// planned queries skip irrelevant feature records via the block
// dictionary instead of testing them one by one, and the results must not
// move.
func TestColumnarMatchesRecordStorageProperty(t *testing.T) {
	dataObjs, feats := clusteredCorpus(4000, 8)
	build := func(st Storage) *Engine {
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
	spq3 := build(StorageDFSBinary)
	others := []struct {
		name, format string
		e            *Engine
	}{
		{"text", "text", build(StorageDFS)},
		{"memory", "mem", build(StorageMemory)},
	}
	if f := spq3.Manifest().Format; f != "spq3" {
		t.Fatalf("binary engine sealed as %q", f)
	}
	for _, o := range others {
		if f := o.e.Manifest().Format; f != o.format {
			t.Fatalf("%s engine sealed as %q", o.name, f)
		}
	}

	// The oracle scores the raw objects with the engine's keyword ids.
	var objs []data.Object
	for _, d := range dataObjs {
		objs = append(objs, data.Object{Kind: data.DataObject, ID: d.ID, Loc: geo.Point{X: d.X, Y: d.Y}})
	}
	for _, f := range feats {
		objs = append(objs, toFeatureObject(f, spq3.dict))
	}

	queries := []Query{
		{K: 5, Radius: 0.03, Keywords: []string{"c2-kw9", "common3"}},
		{K: 10, Radius: 0.1, Keywords: []string{"common1"}},
		{K: 3, Radius: 0.01, Keywords: []string{"c5-kw1"}},
		{K: 7, Radius: 0, Keywords: []string{"common7", "c0-kw3"}},
		{K: 2, Radius: 0.05, Keywords: []string{"zzz-out-of-vocabulary"}},
	}
	for qi, q := range queries {
		oracle := toResults(core.NaiveCentralized(objs, core.Query{
			K: q.K, Radius: q.Radius, Keywords: spq3.dict.LookupAll(q.Keywords)}))
		for _, alg := range Algorithms() {
			for _, planned := range []bool{false, true} {
				opts := []QueryOption{WithAlgorithm(alg), WithGrid(9), WithCache(false)}
				if planned {
					opts = append(opts, WithAutoPlan())
				}
				got3, err := spq3.Query(q, opts...)
				if err != nil {
					t.Fatalf("q%d %v planned=%v spq3: %v", qi, alg, planned, err)
				}
				if !resultsEqual(got3, oracle) {
					t.Errorf("q%d %v planned=%v: spq3 differs from the oracle\nspq3:   %+v\noracle: %+v",
						qi, alg, planned, got3, oracle)
				}
				for _, o := range others {
					got, err := o.e.Query(q, opts...)
					if err != nil {
						t.Fatalf("q%d %v planned=%v %s: %v", qi, alg, planned, o.name, err)
					}
					if !resultsEqual(got3, got) {
						t.Errorf("q%d %v planned=%v: spq3 differs from %s\nspq3: %+v\n%s: %+v",
							qi, alg, planned, o.name, got3, o.name, got)
					}
				}
			}
		}
	}
}

// TestColumnarBlockPruningAndCache checks the two things only columnar
// storage can do: prune inside cells (spq.plan.blocks.pruned > 0 on a selective query) and
// serve repeats from the decoded-segment cache.
func TestColumnarBlockPruningAndCache(t *testing.T) {
	e := NewEngine(Config{Storage: StorageDFSBinary, Nodes: 4, Seed: 7})
	loadClusteredCorpus(t, e, 30000, 8)
	if err := e.Seal(); err != nil {
		t.Fatal(err)
	}

	q := Query{K: 5, Radius: 0.02, Keywords: []string{"c1-kw5"}}
	rep, err := e.QueryReport(q, WithAutoPlan(), WithCache(false))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Plan == nil || rep.Plan.Blocks == 0 {
		t.Fatalf("no block zone maps considered: %+v", rep.Plan)
	}
	if rep.Plan.BlocksPruned == 0 {
		t.Fatalf("selective query pruned no blocks: %+v", rep.Plan)
	}
	if got := rep.Counters["spq.plan.blocks.pruned"]; got != int64(rep.Plan.BlocksPruned) {
		t.Errorf("blocks.pruned counter = %d, Plan says %d", got, rep.Plan.BlocksPruned)
	}
	if got := rep.Counters["spq.plan.blocks.scanned"]; got != int64(rep.Plan.Blocks-rep.Plan.BlocksPruned) {
		t.Errorf("blocks.scanned counter = %d, Plan says %d", got, rep.Plan.Blocks-rep.Plan.BlocksPruned)
	}
	// Block pruning is sharper than cell pruning, and the job itself reads
	// only the selected FEATURE records: the selected data blocks feed the
	// per-grid data view instead of the shuffle, so the map input is a
	// strict subset of the plan's selection.
	read := rep.Counters["map.records.in"]
	if read == 0 || read >= rep.Plan.RecordsSelected {
		t.Errorf("job read %d records, want a non-empty strict subset of the %d selected (features only)",
			read, rep.Plan.RecordsSelected)
	}

	// Repeat: every block the repeat touches — surviving feature blocks
	// through the job, data blocks only if the view were rebuilt — is a
	// segment-cache hit, and nothing is ever decoded twice.
	before := e.SegmentCacheStats()
	if before.Misses == 0 || before.Hits != 0 {
		t.Fatalf("cold segment cache stats: %+v", before)
	}
	rep2, err := e.QueryReport(q, WithAutoPlan(), WithCache(false))
	if err != nil {
		t.Fatal(err)
	}
	if !resultsEqual(rep.Results, rep2.Results) {
		t.Fatal("cached-block repeat changed results")
	}
	after := e.SegmentCacheStats()
	if after.Hits == 0 {
		t.Error("repeat decoded every block again: no segment-cache hits")
	}
	if after.Misses != before.Misses {
		t.Errorf("repeat re-decoded blocks: misses %d -> %d", before.Misses, after.Misses)
	}

	// A compaction bumps the generation: old entries become unreachable.
	if err := e.AddData(DataObject{ID: 1 << 40, X: 0.5, Y: 0.5}); err != nil {
		t.Fatal(err)
	}
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.QueryReport(q, WithAutoPlan(), WithCache(false)); err != nil {
		t.Fatal(err)
	}
	final := e.SegmentCacheStats()
	if final.Misses == after.Misses {
		t.Error("post-compaction query served stale-generation blocks")
	}
}

// TestSegmentCacheDisabled: a negative Config.SegmentCache turns the
// decoded-segment cache off without affecting results.
func TestSegmentCacheDisabled(t *testing.T) {
	e := NewEngine(Config{Storage: StorageDFSBinary, SegmentCache: -1})
	loadClusteredCorpus(t, e, 500, 4)
	q := Query{K: 3, Radius: 0.05, Keywords: []string{"common2"}}
	res, err := e.Query(q, WithAutoPlan())
	if err != nil {
		t.Fatal(err)
	}
	if st := e.SegmentCacheStats(); st.Hits != 0 || st.Misses != 0 || st.Entries != 0 {
		t.Fatalf("disabled cache has stats %+v", st)
	}
	ref := NewEngine(Config{Storage: StorageDFSBinary})
	loadClusteredCorpus(t, ref, 500, 4)
	want, err := ref.Query(q, WithAutoPlan())
	if err != nil {
		t.Fatal(err)
	}
	if !resultsEqual(res, want) {
		t.Fatal("cache-disabled engine returned different results")
	}
}
