package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"spq"
	"spq/internal/core"
	"spq/internal/data"
	"spq/internal/dfs"
	"spq/internal/geo"
	"spq/internal/grid"
	"spq/internal/plan"
)

// span is one traced interval. Spans of one request share req; parent
// names the span that caused this one. Offsets are microseconds since the
// run's epoch. Derived spans were not timed directly: their bounds are
// placed from durations the engine reports (the job ends when the engine
// call returns, map starts the job and reduce ends it).
type span struct {
	ID      string  `json:"id"`
	Parent  string  `json:"parent,omitempty"`
	Name    string  `json:"name"`
	Req     int     `json:"req"`
	Start   float64 `json:"start_us"`
	End     float64 `json:"end_us"`
	Derived bool    `json:"derived,omitempty"`
}

func (s span) ms() float64 { return (s.End - s.Start) / 1000 }

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1000 }

// engineCall is one traced call into the engine.
type engineCall struct {
	key        string
	start, end time.Duration
	rep        *spq.Report // nil if the call failed
	matched    bool
}

// tracer wraps the engine behind the serve.Engine interface and, while
// on, records every query call with its report.
type tracer struct {
	eng   *spq.Engine
	epoch time.Time
	on    atomic.Bool

	mu    sync.Mutex
	calls []engineCall
}

func (t *tracer) QueryReportContext(ctx context.Context, q spq.Query, opts ...spq.QueryOption) (*spq.Report, error) {
	if !t.on.Load() {
		return t.eng.QueryReportContext(ctx, q, opts...)
	}
	start := time.Since(t.epoch)
	rep, err := t.eng.QueryReportContext(ctx, q, opts...)
	c := engineCall{key: queryKey(q), start: start, end: time.Since(t.epoch), rep: rep}
	t.mu.Lock()
	t.calls = append(t.calls, c)
	t.mu.Unlock()
	return rep, err
}

func (t *tracer) Generation() uint64 { return t.eng.Generation() }

func (t *tracer) CacheStats() spq.CacheStats { return t.eng.CacheStats() }

// match pairs each traced request with the engine call it caused: the
// call for the same query inside the request's round trip. Two identical
// queries in flight at once are interchangeable.
func (t *tracer) match(reqs []request, pool []spq.Query) map[int]*engineCall {
	byKey := map[string][]int{}
	for i := range t.calls {
		byKey[t.calls[i].key] = append(byKey[t.calls[i].key], i)
	}
	out := map[int]*engineCall{}
	for i := range reqs {
		r := &reqs[i]
		if !r.traced {
			continue
		}
		for _, ci := range byKey[queryKey(pool[r.query])] {
			c := &t.calls[ci]
			if !c.matched && c.start >= r.start && c.end <= r.end {
				c.matched = true
				out[r.id] = c
				break
			}
		}
	}
	return out
}

// requestSpans returns the span tree of one traced request: the client
// round trip, the engine call inside it, and the job, map and reduce
// spans placed from the engine's report.
func requestSpans(r *request, c *engineCall) []span {
	id := fmt.Sprint(r.id)
	out := []span{{ID: "r" + id, Name: "request", Req: r.id, Start: us(r.start), End: us(r.end)}}
	if c == nil {
		return out
	}
	out = append(out, span{ID: "e" + id, Parent: "r" + id, Name: "engine.query", Req: r.id, Start: us(c.start), End: us(c.end)})
	if c.rep == nil || c.rep.TotalMillis == 0 {
		return out
	}
	jobEnd := us(c.end)
	jobStart := jobEnd - c.rep.TotalMillis*1000
	return append(out,
		span{ID: "j" + id, Parent: "e" + id, Name: "mapreduce.job", Req: r.id, Start: jobStart, End: jobEnd, Derived: true},
		span{ID: "m" + id, Parent: "j" + id, Name: "mapreduce.map", Req: r.id, Start: jobStart, End: jobStart + c.rep.MapMillis*1000, Derived: true},
		span{ID: "d" + id, Parent: "j" + id, Name: "mapreduce.reduce", Req: r.id, Start: jobEnd - c.rep.ReduceMillis*1000, End: jobEnd, Derived: true},
	)
}

// selfTimes sums, per span name, each span's duration minus the part of
// it its children cover (children of one span never overlap here).
func selfTimes(spans []span) map[string]float64 {
	child := map[string]float64{}
	for _, s := range spans {
		if s.Parent != "" {
			child[s.Parent] += s.ms()
		}
	}
	out := map[string]float64{}
	for _, s := range spans {
		out[s.Name] += s.ms() - child[s.ID]
	}
	return out
}

// rtStats samples the Go runtime's allocation and GC CPU counters.
type rtStats struct{ alloc, gcCPU, totalCPU float64 }

func readRuntime() rtStats {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return rtStats{alloc: v(0), gcCPU: v(1), totalCPU: v(2)}
}

func (a rtStats) sub(b rtStats) rtStats {
	return rtStats{alloc: a.alloc - b.alloc, gcCPU: a.gcCPU - b.gcCPU, totalCPU: a.totalCPU - b.totalCPU}
}

func (a rtStats) add(b rtStats) rtStats {
	return rtStats{alloc: a.alloc + b.alloc, gcCPU: a.gcCPU + b.gcCPU, totalCPU: a.totalCPU + b.totalCPU}
}

// replayStats are the per-layer figures timed by replaying traced
// requests against the layers' public functions after the window.
type replayStats struct {
	n           int // requests whose plan and decode were replayed
	planMs      float64
	viewBuildMs float64
	viewLookups int
	viewHits    int
	decodeMs    float64
}

// replayTarget is one traced request to replay.
type replayTarget struct {
	req  *request
	view bool // the engine served it through a data view
}

// replay looks up the data view of every target the engine served
// through one, in order, in the benchmark's own core.ViewCache. For the
// first n targets it also times the planner on the engine's manifest and
// an uncached decode of the query's block selection. Views and decodes
// read an SPQ3 copy of the generated dataset that the benchmark seals
// itself.
func replay(eng *spq.Engine, ds *data.Dataset, pool []spq.Query, targets []replayTarget, n int, epoch time.Time) (replayStats, []span, error) {
	var st replayStats
	var spans []span
	minX, minY, maxX, maxY := eng.Bounds()
	bounds := geo.Rect{MinX: minX, MinY: minY, MaxX: maxX, MaxY: maxY}
	if bounds.Width() == 0 || bounds.Height() == 0 {
		bounds = bounds.Expand(1)
	}
	g := grid.New(bounds, spq.DefaultSealGridN, spq.DefaultSealGridN)
	parts := data.PartitionObjects(g, ds.Objects())
	parts.Generation = 1
	fs := dfs.New(dfs.Config{})
	man, err := parts.SealDFS(fs, "perfbench", ds.Dict, data.FormatCompressed)
	if err != nil {
		return st, nil, fmt.Errorf("seal replay copy: %w", err)
	}
	engMan := eng.Manifest()
	views := core.NewViewCache(0)
	blocks := data.NewBlockCache(0)
	timed := func(name string, req int, fn func() error) (float64, error) {
		start := time.Since(epoch)
		err := fn()
		end := time.Since(epoch)
		spans = append(spans, span{ID: fmt.Sprintf("%s%d", name, len(spans)), Name: name, Req: req, Start: us(start), End: us(end)})
		return (end - start).Seconds() * 1000, err
	}
	for i, t := range targets {
		q := pool[t.req.query]
		in := plan.Input{Radius: q.Radius, Keywords: q.Keywords, ReduceSlots: defaultSlots}
		layers := i < n
		if layers {
			ms, _ := timed("plan.replay", t.req.id, func() error {
				plan.PlanGenerations(engMan, nil, nil, in)
				return nil
			})
			st.planMs += ms
		}
		dec := plan.PlanGenerations(man, nil, nil, in)
		gridN := dec.GridN
		if gridN <= 0 {
			gridN = defaultGridN
		}
		dataSel, featSel := selectCells(dec.Data, dec.Blocks), selectCells(dec.Features, dec.Blocks)
		if t.view {
			key := core.ViewKey(man.Generation, gridN, bounds, dataSel)
			built := false
			ms, err := timed("view.replay", t.req.id, func() error {
				_, err := views.GetOrBuild(key, func() (*core.DataView, error) {
					built = true
					qg := grid.New(bounds, gridN, gridN)
					return core.BuildDataView(qg, data.NewColInput(fs, dataSel, blocks, man.Generation))
				})
				return err
			})
			if err != nil {
				return st, nil, fmt.Errorf("replay view: %w", err)
			}
			st.viewLookups++
			if built {
				st.viewBuildMs += ms
			} else {
				st.viewHits++
			}
		}
		if !layers {
			continue
		}
		src := data.NewColInput(fs, append(dataSel, featSel...), nil, man.Generation)
		src.Keywords = ds.Dict.LookupAll(q.Keywords)
		ms, err := timed("decode.replay", t.req.id, func() error {
			splits, err := src.Splits()
			if err != nil {
				return err
			}
			for _, sp := range splits {
				if err := sp.Each(func(data.Object) bool { return true }); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return st, nil, fmt.Errorf("replay decode: %w", err)
		}
		st.decodeMs += ms
		st.n++
	}
	return st, spans, nil
}

// Engine defaults the replays mirror (spq.Config leaves them unexported).
const (
	defaultSlots = 8
	defaultGridN = 16
)

// selectCells is the engine's block selection over one dataset's
// surviving cells.
func selectCells(cells []data.CellStats, blocks map[string][]int) []data.ColSel {
	out := make([]data.ColSel, 0, len(cells))
	for _, cs := range cells {
		out = append(out, data.ColSel{Cell: cs, Blocks: blocks[cs.File]})
	}
	return out
}

// writeSpans stores the spans of a traced run as JSON.
func writeSpans(dir, workload string, seed int64, spans []span) (string, error) {
	path := filepath.Join(dir, "traces", fmt.Sprintf("%s-seed%d.json", workload, seed))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return "", err
	}
	b, err := json.Marshal(spans)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}

// counterSum adds the report counters whose name starts with prefix.
func counterSum(c map[string]int64, prefix string) float64 {
	var n int64
	for k, v := range c {
		if strings.HasPrefix(k, prefix) {
			n += v
		}
	}
	return float64(n)
}
