package main

import (
	"fmt"
	"math/rand"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"time"

	"spq"
	"spq/internal/data"
	"spq/internal/geo"
	"spq/internal/mapreduce"
)

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	out      string
	scale    scale
}

// workload is one traffic mix over the serving path.
type workload struct {
	// dataset is "FL" (Flickr surrogate, selective single-keyword
	// queries) or "UN" (uniform, scan-heavy three-keyword queries).
	dataset string
	// conns is the number of closed-loop client connections.
	conns int
	// writer adds the open-loop appender beside the queries.
	writer bool
	// workers is the number of in-process RPC workers (1 slot each); 0
	// runs every job in the engine's process.
	workers int
}

var workloads = map[string]workload{
	"selective":   {dataset: "FL", conns: 2},
	"scan":        {dataset: "UN", conns: 2},
	"ingest":      {dataset: "FL", conns: 1, writer: true},
	"distributed": {dataset: "FL", conns: 2, workers: 2},
}

// scale sets the input sizes. full is the benchmark; tiny lets the tests
// prove that every metric is produced.
type scale struct {
	objects map[string]int // objects per dataset, data and features together
	// rankLo and rankHi bound the keyword frequency ranks of FL queries.
	rankLo, rankHi int
	// scanTop is how many of the most frequent UN keywords scan queries
	// draw from, scanDistinct how many distinct scan queries there are
	// (each costs a slow oracle reference).
	scanTop, scanDistinct int
	// streamLen is the length of the seeded query stream; clients wrap
	// around if they exhaust it.
	streamLen int
	warmup    time.Duration
	// setups is how many times the engine is set up; setup_s is their
	// median and the last engine serves.
	setups int
	// appendBatch is the records per ingest batch (half data, half
	// features); ingestRecords the records appended over the window.
	appendBatch, ingestRecords int
	// replays is how many traced requests have their plan and decode
	// replayed, viewReplays how many have their data-view lookup replayed.
	replays, viewReplays int
	// checkSample is how many ingest responses are checked.
	checkSample int
}

var scales = map[string]scale{
	"full": {
		objects: map[string]int{"FL": 200_000, "UN": 250_000},
		rankLo:  200, rankHi: 2000,
		scanTop: 50, scanDistinct: 32,
		streamLen:   4096,
		warmup:      2 * time.Second,
		setups:      3,
		appendBatch: 128,
		// 2.25 x the default CompactAfter: two automatic compactions
		// inside every window.
		ingestRecords: 9 * spq.DefaultCompactAfter / 4,
		replays:       32,
		viewReplays:   256,
		checkSample:   32,
	},
	"tiny": {
		objects: map[string]int{"FL": 6000, "UN": 3000},
		rankLo:  20, rankHi: 200,
		scanTop: 50, scanDistinct: 4,
		streamLen:   256,
		warmup:      200 * time.Millisecond,
		setups:      2,
		appendBatch: 64, ingestRecords: 1024,
		replays: 4, viewReplays: 16,
		checkSample: 4,
	},
}

// Query shapes of the two datasets.
const (
	topK         = 10
	flRadius     = 0.002
	unRadius     = 0.01
	scanKeywords = 3
)

// genSpec is the generator spec of a dataset at this scale and seed.
func genSpec(dataset string, n int, seed int64) data.Spec {
	var spec data.Spec
	if dataset == "UN" {
		spec = data.UniformSpec(n)
	} else {
		spec = data.FlickrSpec(n)
	}
	spec.Seed = seed
	return spec
}

// queryStream builds the distinct queries of a workload and the seeded
// stream of indices into them that the clients send in order.
func queryStream(ds *data.Dataset, sc scale, seed int64) ([]spq.Query, []int) {
	r := rand.New(rand.NewSource(seed))
	var pool []spq.Query
	if ds.Spec.Name == "UN" {
		top := ds.FrequentQueryKeywords(sc.scanTop)
		seen := map[string]bool{}
		for len(pool) < sc.scanDistinct {
			idx := r.Perm(len(top))[:scanKeywords]
			sort.Ints(idx)
			words := make([]string, len(idx))
			for i, j := range idx {
				words[i] = ds.Dict.Word(top[j])
			}
			if key := strings.Join(words, ","); !seen[key] {
				seen[key] = true
				pool = append(pool, spq.Query{K: topK, Radius: unRadius, Keywords: words})
			}
		}
	} else {
		ranked := ds.FrequentQueryKeywords(sc.rankHi)
		for _, id := range ranked[min(sc.rankLo, len(ranked)-1):] {
			pool = append(pool, spq.Query{K: topK, Radius: flRadius, Keywords: []string{ds.Dict.Word(id)}})
		}
	}
	stream := make([]int, sc.streamLen)
	for i := range stream {
		stream[i] = r.Intn(len(pool))
	}
	return pool, stream
}

// engineInput converts a generated dataset to the engine's public types;
// the engine sees the objects only through AddData and AddFeature.
func engineInput(ds *data.Dataset) ([]spq.DataObject, []spq.Feature) {
	objs := make([]spq.DataObject, len(ds.Data))
	for i, o := range ds.Data {
		objs[i] = spq.DataObject{ID: o.ID, X: o.Loc.X, Y: o.Loc.Y}
	}
	return objs, engineFeatures(ds, ds.Features)
}

func engineFeatures(ds *data.Dataset, fs []data.Object) []spq.Feature {
	out := make([]spq.Feature, len(fs))
	for i, f := range fs {
		out[i] = spq.Feature{ID: f.ID, X: f.Loc.X, Y: f.Loc.Y, Keywords: ds.Dict.Words(f.Keywords)}
	}
	return out
}

// setUp builds and seals the serving engine n times and returns the last
// one with every set-up time, in seconds: from NewEngine (which attaches
// the workers) through AddData, AddFeature and Seal.
func setUp(cfg spq.Config, objs []spq.DataObject, feats []spq.Feature, n int) (*spq.Engine, []float64, error) {
	var times []float64
	var eng *spq.Engine
	for i := 0; i < n; i++ {
		if eng != nil {
			if err := eng.Close(); err != nil {
				return nil, nil, err
			}
			eng = nil
		}
		// Every set-up starts from a collected heap returned to the OS, as
		// a fresh process would.
		debug.FreeOSMemory()
		start := time.Now()
		e := spq.NewEngine(cfg)
		err := e.AddData(objs...)
		if err == nil {
			err = e.AddFeature(feats...)
		}
		if err == nil {
			err = e.Seal()
		}
		times = append(times, time.Since(start).Seconds())
		if err != nil {
			e.Close()
			return nil, nil, fmt.Errorf("set up engine: %w", err)
		}
		eng = e
	}
	return eng, times, nil
}

// startWorkers starts n in-process RPC workers of one slot each.
func startWorkers(n int) ([]*mapreduce.WorkerNode, []string, error) {
	var nodes []*mapreduce.WorkerNode
	var addrs []string
	for i := 0; i < n; i++ {
		w, err := mapreduce.StartWorker("127.0.0.1:0", 1)
		if err != nil {
			stopWorkers(nodes)
			return nil, nil, err
		}
		nodes = append(nodes, w)
		addrs = append(addrs, w.Addr())
	}
	return nodes, addrs, nil
}

func stopWorkers(nodes []*mapreduce.WorkerNode) {
	for _, w := range nodes {
		w.Stop()
	}
}

// batch is one append: half data objects, half features.
type batch struct {
	data  []spq.DataObject
	feats []spq.Feature
	// objs are the same records in oracle form, data first.
	objs []data.Object
}

// makeBatches generates n append batches of size records each: FL-like
// keywords and hotspot locations clamped into bounds, with ids above every
// id of the generated dataset.
func makeBatches(ds *data.Dataset, n, size int, seed int64, bounds geo.Rect) []batch {
	if n == 0 {
		return nil
	}
	gen := data.Generate(genSpec("FL", n*size, seed^0x5eed))
	idBase := uint64(len(ds.Data) + len(ds.Features))
	clamp := func(o data.Object) data.Object {
		o.ID += idBase
		o.Loc = geo.Clamp(o.Loc, bounds)
		return o
	}
	half := size / 2
	out := make([]batch, n)
	for i := range out {
		b := &out[i]
		for _, o := range gen.Data[i*half : (i+1)*half] {
			o = clamp(o)
			b.data = append(b.data, spq.DataObject{ID: o.ID, X: o.Loc.X, Y: o.Loc.Y})
			b.objs = append(b.objs, o)
		}
		var fs []data.Object
		for _, o := range gen.Features[i*half : (i+1)*half] {
			fs = append(fs, clamp(o))
		}
		// Both generators intern the same w0..wN vocabulary in order, so
		// keyword ids mean the same words in gen and ds.
		b.feats = engineFeatures(ds, fs)
		b.objs = append(b.objs, fs...)
	}
	return out
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
