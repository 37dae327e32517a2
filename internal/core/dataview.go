package core

import (
	"bytes"
	"container/list"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"

	"spq/internal/data"
	"spq/internal/geo"
	"spq/internal/grid"
	"spq/internal/mapreduce"
)

// DataView is the dense query-grid layout of a storage generation's data
// objects: for every query-grid cell, the cell's data objects in one
// contiguous slice with the reduce-side bucket index prebuilt. It exists
// because the data half of an SPQ job is query-independent given the grid:
// data objects carry no keywords, never duplicate (only features fan out
// under Lemma 1), and land in exactly one cell — so shuffling them
// per-query sorts, copies and merges the same 50% of the input into the
// same buckets every time. A view computes that bucketing once over all
// of a generation's data objects; every query sharing (generation, grid)
// reuses it through ViewCache, whatever its keywords or pruned block
// selection, and its MapReduce job reads only feature records. Objects the
// planner would have pruned are harmless: they have no surviving feature
// within r, reduce visits only the cells that features reach, and the
// reducers never report an object scoring 0. Reduce tasks resolve their
// cell's objects directly from the view, exactly as if the records had
// arrived in-stream first (the comparator guarantees data before features,
// so preloading is order-equivalent), making results bit-identical to the
// shuffled path.
type DataView struct {
	gridN  int
	bounds geo.Rect
	// records is the total object count, the unit of ViewCache accounting.
	records int
	cells   []viewCell // indexed by grid.CellID
}

// viewCell is one grid cell's data objects, as dense id and coordinate
// columns, plus their prebuilt bucket index (nil when the cell is too
// small for the index to pay off, mirroring buildObjGrid). When indexed,
// the columns are permuted into bucket (CSR) order so that every index
// bucket is a contiguous run the scanSpan kernel reads. A view object is
// fully described by its id and location — data objects carry no
// keywords — so the columns hold everything a reducer reports, in 24
// bytes per object instead of a 56-byte data.Object. Everything is
// immutable after construction and shared read-only by concurrent reduce
// tasks.
type viewCell struct {
	ids    []uint64
	xs, ys []float64
	index  *objGrid
}

// BuildDataView lays the source's data objects out over the query grid and
// prebuilds each cell's bucket index. The source must yield data objects
// only; feature objects are rejected, because silently accepting them
// would drop their scores from every query using the view.
//
// The layout costs a few allocations per view, not per cell. One pass
// collects ids and coordinates in source order (presized from the splits'
// record counts) and counts objects per cell; a counting sort then orders
// them cell by cell. Every cell's ids, xs and ys are sub-slices of one
// backing array each, written in bucket order from one scratch buffer
// that is reused across cells to build the cell's index.
func BuildDataView(g *grid.Grid, src mapreduce.Source[data.Object]) (*DataView, error) {
	splits, err := src.Splits()
	if err != nil {
		return nil, err
	}
	hint := 0
	for _, s := range splits {
		if cs, ok := s.(mapreduce.CountedSplit); ok {
			hint += cs.Records()
		}
	}
	srcIDs := make([]uint64, 0, hint)
	srcXs, srcYs := make([]float64, 0, hint), make([]float64, 0, hint)
	cellOf := make([]grid.CellID, 0, hint)
	starts := make([]int, g.NumCells()+1)
	var badKind bool
	for _, s := range splits {
		err := s.Each(func(o data.Object) bool {
			if o.Kind != data.DataObject {
				badKind = true
				return false
			}
			c := g.CellOf(o.Loc)
			srcIDs = append(srcIDs, o.ID)
			srcXs, srcYs = append(srcXs, o.Loc.X), append(srcYs, o.Loc.Y)
			cellOf = append(cellOf, c)
			starts[c+1]++
			return true
		})
		if err != nil {
			return nil, err
		}
		if badKind {
			return nil, fmt.Errorf("core: data view source yielded a feature object")
		}
	}

	// Counting sort by cell: starts becomes the cells' offsets, and order
	// lists the source positions cell by cell, in source order within a
	// cell.
	for i := 1; i < len(starts); i++ {
		starts[i] += starts[i-1]
	}
	n := len(cellOf)
	order := make([]int32, n)
	fill := append([]int(nil), starts[:len(starts)-1]...)
	for i, c := range cellOf {
		order[fill[c]] = int32(i)
		fill[c]++
	}

	v := &DataView{gridN: dimsOf(g), bounds: g.Bounds(), records: n, cells: make([]viewCell, g.NumCells())}
	ids, xs, ys := make([]uint64, n), make([]float64, n), make([]float64, n)
	var objs []data.Object
	for i := range v.cells {
		lo, hi := starts[i], starts[i+1]
		if lo == hi {
			continue
		}
		objs = objs[:0]
		for _, k := range order[lo:hi] {
			objs = append(objs, data.Object{Kind: data.DataObject, ID: srcIDs[k], Loc: geo.Point{X: srcXs[k], Y: srcYs[k]}})
		}
		// Full slice expressions: a cell can never grow into its neighbour.
		c := &v.cells[i]
		c.ids, c.xs, c.ys = ids[lo:hi:hi], xs[lo:hi:hi], ys[lo:hi:hi]
		c.index = buildObjGrid(objs)
		for j := range objs {
			o := &objs[j]
			if c.index != nil {
				// Write the cell in bucket order: the index's idx array
				// becomes the identity, so every bucket span is a
				// contiguous run of the columns, which is what lets the
				// reduce side scan a span with the batch-8 kernel instead
				// of gathering through idx. Scores are per-index state
				// seeded fresh for each group, and the top-k is
				// order-canonical, so the permutation cannot change
				// results.
				o = &objs[c.index.idx[j]]
				c.index.idx[j] = int32(j)
			}
			c.ids[j], c.xs[j], c.ys[j] = o.ID, o.Loc.X, o.Loc.Y
		}
	}
	return v, nil
}

// viewFunc resolves the data view a reduce group is seeded from. It runs
// inside the reduce task, so a view that still has to be built is built —
// and metered — by the first task whose groups need it.
type viewFunc func(*taskCtx) (*DataView, error)

// fixedView resolves to an already-built view.
func fixedView(v *DataView) viewFunc {
	return func(*taskCtx) (*DataView, error) { return v, nil }
}

// ErrViewUnavailable fails a data-view job whose view cannot be resolved
// where its reduce tasks run. Such a job's source carries feature objects
// only, so reducing without the view would silently return results
// missing every data object; the job fails instead.
var ErrViewUnavailable = errors.New("core: data view unavailable")

// resolveView returns the view cached under key, building it on a miss,
// and counts a build on the task that performed it (under CounterViewBuilds
// and, for a named worker, CounterViewBuilds+"."+worker as well).
// Concurrent tasks needing the same view share one build.
func resolveView(ctx *taskCtx, views *ViewCache, key, worker string, build func() (*DataView, error)) (*DataView, error) {
	built := false
	v, err := views.GetOrBuild(key, func() (*DataView, error) {
		built = true
		return build()
	})
	if err == nil && built {
		ctx.Counter(CounterViewBuilds, 1)
		if worker != "" {
			ctx.Counter(CounterViewBuilds+"."+worker, 1)
		}
	}
	return v, err
}

// buildManifestView builds the data view of the generation a persisted
// manifest (its encoded bytes) describes: every data block it lists, read
// through r and laid over g. gen is the generation the job was planned
// on; a manifest of any other generation, or of a format without block
// zone maps, is rejected as a permanent failure.
func buildManifestView(r data.RangeReader, manifest []byte, gen uint64, g *grid.Grid, io *data.SegIOStats) (*DataView, error) {
	m, err := data.DecodeManifest(bytes.NewReader(manifest))
	if err != nil {
		return nil, mapreduce.Permanent(fmt.Errorf("%w: %v", ErrViewUnavailable, err))
	}
	if m.Format != data.FormatCompressed || m.Generation != gen {
		return nil, mapreduce.Permanent(fmt.Errorf("%w: manifest of a %q generation %d, want %q generation %d",
			ErrViewUnavailable, m.Format, m.Generation, data.FormatCompressed, gen))
	}
	in := data.NewColInput(r, data.SelectCells(nil, m.Data), nil, m.Generation)
	in.IO = io
	return BuildDataView(g, in)
}

// localWireView resolves the view of a data-view job that runs locally
// although its wire names the view for workers to build (a local
// fallback): the master builds its own view from the manifest in the
// cluster's file system, once per job. Without a file system the job
// fails with ErrViewUnavailable.
func localWireView(c *mapreduce.Cluster, w *WireInfo, g *grid.Grid) viewFunc {
	views := NewViewCache(0)
	key := ViewKey(w.Gen, dimsOf(g), g.Bounds(), nil)
	return func(ctx *taskCtx) (*DataView, error) {
		if c.FS == nil {
			return nil, mapreduce.Permanent(fmt.Errorf("%w: job runs locally without a file system to read %s from", ErrViewUnavailable, w.View))
		}
		return resolveView(ctx, views, key, "", func() (*DataView, error) {
			m, err := c.FS.ReadAll(w.View)
			if err != nil {
				return nil, err
			}
			return buildManifestView(c.FS, m, w.Gen, g, nil)
		})
	}
}

// Records returns the number of data objects the view holds.
func (v *DataView) Records() int { return v.records }

// cell returns the view cell for id, or nil when the cell holds no data.
func (v *DataView) cell(id grid.CellID) *viewCell {
	if int(id) < 0 || int(id) >= len(v.cells) {
		return nil
	}
	if len(v.cells[id].ids) == 0 {
		return nil
	}
	return &v.cells[id]
}

// matches reports whether the view was built for this job's grid.
func (v *DataView) matches(g *grid.Grid) bool {
	return v.gridN == dimsOf(g) && v.bounds == g.Bounds()
}

func dimsOf(g *grid.Grid) int {
	nx, _ := g.Dims()
	return nx
}

// ViewKey canonicalizes one data-view identity: storage generation, query
// grid (size and bounds) and, optionally, a data-block selection. The
// engine passes a nil selection — its views cover every data block of the
// generation, so the key is (generation, grid). A caller that builds views
// over a subset passes that subset; the full string is then the key, since
// a digest would let two distinct selections collide and silently serve a
// view built for the wrong blocks. A nil block list and an explicit
// every-block list of a cell render identically.
func ViewKey(gen uint64, gridN int, bounds geo.Rect, sel []data.ColSel) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d|%d|%x,%x,%x,%x|", gen, gridN,
		math.Float64bits(bounds.MinX), math.Float64bits(bounds.MinY),
		math.Float64bits(bounds.MaxX), math.Float64bits(bounds.MaxY))
	for _, cs := range sel {
		fmt.Fprintf(&b, "%s:", cs.Cell.File)
		if cs.Blocks == nil || len(cs.Blocks) == len(cs.Cell.Blocks) {
			b.WriteByte('*')
		} else {
			fmt.Fprintf(&b, "%v", cs.Blocks)
		}
		b.WriteByte(';')
	}
	return b.String()
}

// DefaultViewCacheRecords is the default ViewCache budget, in cached data
// objects (~30 bytes each with their index, so the default is on the order
// of 60 MiB).
const DefaultViewCacheRecords = 1 << 21

// ViewCache is an LRU over data views, budgeted by total cached records
// rather than entry count: one view of a 10M-object generation should not
// cost the same as one view of a 10k-object test corpus. Keys are caller-
// defined; the engine keys on (generation, grid), so — like the query and
// segment caches — a generation bump makes stale views unreachable by
// construction, and the cache holds one view per grid size in use.
type ViewCache struct {
	mu      sync.Mutex
	budget  int
	records int
	ll      *list.List
	entries map[string]*list.Element
	hits    int64
	misses  int64
	// inflight deduplicates concurrent builds of the same view (see
	// GetOrBuild): after a generation bump every in-flight query misses at
	// once, and N redundant full-dataset builds would multiply both the
	// build CPU and the transient allocation by the client count.
	inflight map[string]*viewBuild
}

// viewBuild is one in-progress GetOrBuild computation.
type viewBuild struct {
	done chan struct{}
	view *DataView
	err  error
}

type viewEntry struct {
	key  string
	view *DataView
}

// NewViewCache creates a cache holding up to budget records across its
// views. budget <= 0 selects DefaultViewCacheRecords.
func NewViewCache(budget int) *ViewCache {
	if budget <= 0 {
		budget = DefaultViewCacheRecords
	}
	return &ViewCache{
		budget:   budget,
		ll:       list.New(),
		entries:  make(map[string]*list.Element),
		inflight: make(map[string]*viewBuild),
	}
}

// GetOrBuild returns the cached view for key, or runs build exactly once
// to create it — concurrent callers for the same key wait for the single
// build instead of each building their own. A failed build is not cached;
// the next caller retries.
func (c *ViewCache) GetOrBuild(key string, build func() (*DataView, error)) (*DataView, error) {
	if c == nil {
		return build()
	}
	for {
		if v, ok := c.Get(key); ok {
			return v, nil
		}
		c.mu.Lock()
		if b, ok := c.inflight[key]; ok {
			c.mu.Unlock()
			<-b.done
			if b.err == nil {
				return b.view, nil
			}
			// The winning build failed; loop to retry (or join a newer
			// attempt).
			continue
		}
		b := &viewBuild{done: make(chan struct{})}
		c.inflight[key] = b
		c.mu.Unlock()

		b.view, b.err = build()
		c.mu.Lock()
		delete(c.inflight, key)
		c.mu.Unlock()
		close(b.done)
		if b.err != nil {
			return nil, b.err
		}
		c.Put(key, b.view)
		return b.view, nil
	}
}

// Get returns the cached view for key, if present.
func (c *ViewCache) Get(key string) (*DataView, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*viewEntry).view, true
}

// Put stores a view, evicting least-recently-used entries until the record
// budget holds. A view larger than the whole budget is cached alone (the
// working set IS that one view).
func (c *ViewCache) Put(key string, v *DataView) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.records += v.records - el.Value.(*viewEntry).view.records
		el.Value.(*viewEntry).view = v
		c.ll.MoveToFront(el)
	} else {
		c.entries[key] = c.ll.PushFront(&viewEntry{key: key, view: v})
		c.records += v.records
	}
	for c.records > c.budget && c.ll.Len() > 1 {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		e := oldest.Value.(*viewEntry)
		delete(c.entries, e.key)
		c.records -= e.view.records
	}
}

// Stats returns the cumulative hit/miss counts and current size.
func (c *ViewCache) Stats() (hits, misses int64, entries, records int) {
	if c == nil {
		return 0, 0, 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.ll.Len(), c.records
}
