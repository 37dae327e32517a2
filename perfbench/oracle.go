package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"

	"spq"
	"spq/internal/core"
	"spq/internal/data"
	"spq/internal/geo"
)

// oracle answers queries with internal/core's centralized R-tree
// baseline, independently of the engine under test. To keep references
// cheap it hands the baseline only the objects that can score: features
// sharing a keyword with the query (from the benchmark's own keyword
// index) and data objects in grid cells within the radius of one of them.
// The baseline drops every other object itself (non-matching features
// are pruned, and data objects without a feature in range score 0, which
// top-k never returns), so the answer is unchanged.
type oracle struct {
	ds    *data.Dataset
	index map[uint32][]int32 // keyword -> positions in ds.Features
	// Data objects bucketed on an n x n grid over the dataset's bounds.
	bounds geo.Rect
	n      int
	cells  [][]int32 // cell -> positions in ds.Data
}

func newOracle(ds *data.Dataset, cell float64) *oracle {
	o := &oracle{ds: ds, index: make(map[uint32][]int32), bounds: ds.Bounds()}
	for i, f := range ds.Features {
		for _, kw := range f.Keywords {
			o.index[kw] = append(o.index[kw], int32(i))
		}
	}
	o.n = max(1, min(1024, int(math.Ceil(o.bounds.Width()/cell))))
	o.cells = make([][]int32, o.n*o.n)
	for i, d := range ds.Data {
		c := o.cellOf(d.Loc.Y)*o.n + o.cellOf(d.Loc.X)
		o.cells[c] = append(o.cells[c], int32(i))
	}
	return o
}

// cellOf maps a coordinate to its grid column (or row); the grid is
// square over the unit-square bounds every generator uses.
func (o *oracle) cellOf(v float64) int {
	c := int((v - o.bounds.MinX) / o.bounds.Width() * float64(o.n))
	return max(0, min(o.n-1, c))
}

// reference returns the oracle's top-k over the generated dataset plus
// the appended records extra.
func (o *oracle) reference(q spq.Query, extra []data.Object) []core.ResultItem {
	kws := o.ds.Dict.LookupAll(q.Keywords)
	var cands []int32
	for _, kw := range kws {
		cands = append(cands, o.index[kw]...)
	}
	slices.Sort(cands)
	cands = slices.Compact(cands)
	feats := make([]data.Object, 0, len(cands))
	for _, i := range cands {
		feats = append(feats, o.ds.Features[i])
	}
	for _, e := range extra {
		if e.Kind == data.FeatureObject {
			feats = append(feats, e)
		}
	}
	near := make([]bool, len(o.ds.Data))
	objs := make([]data.Object, 0, len(feats))
	for _, f := range feats {
		for cy := o.cellOf(f.Loc.Y - q.Radius); cy <= o.cellOf(f.Loc.Y+q.Radius); cy++ {
			for cx := o.cellOf(f.Loc.X - q.Radius); cx <= o.cellOf(f.Loc.X+q.Radius); cx++ {
				for _, i := range o.cells[cy*o.n+cx] {
					if !near[i] {
						near[i] = true
						objs = append(objs, o.ds.Data[i])
					}
				}
			}
		}
	}
	for _, e := range extra {
		if e.Kind == data.DataObject {
			objs = append(objs, e)
		}
	}
	objs = append(objs, feats...)
	return core.RTreeCentralized(objs, core.Query{K: q.K, Radius: q.Radius, Keywords: kws, Mode: q.Mode})
}

// queryKey is the canonical text of a query, used to key references.
func queryKey(q spq.Query) string {
	kws := slices.Clone(q.Keywords)
	slices.Sort(kws)
	return fmt.Sprintf("%d|%s|%s|%d", q.K, strconv.FormatFloat(q.Radius, 'g', -1, 64), strings.Join(kws, ","), q.Mode)
}

// refItem is a cached oracle result.
type refItem struct {
	ID    uint64  `json:"id"`
	X     float64 `json:"x"`
	Y     float64 `json:"y"`
	Score float64 `json:"score"`
}

func toRef(items []core.ResultItem) []refItem {
	out := make([]refItem, len(items))
	for i, it := range items {
		out[i] = refItem{ID: it.ID, X: it.Loc.X, Y: it.Loc.Y, Score: it.Score}
	}
	return out
}

// refCache keeps base-data references on disk, one file per dataset,
// size and seed, so runs that reuse a seed compute each reference once.
// The file name carries a digest of the running executable: a rebuilt
// oracle never reads references an older build computed.
type refCache struct {
	path string
	refs map[string][]refItem
}

func openRefCache(dir, dataset string, n int, seed int64) (*refCache, error) {
	digest, err := executableDigest()
	if err != nil {
		return nil, err
	}
	c := &refCache{
		path: filepath.Join(dir, "refs", fmt.Sprintf("%s-%d-seed%d-%s.json", dataset, n, seed, digest)),
		refs: make(map[string][]refItem),
	}
	b, err := os.ReadFile(c.path)
	switch {
	case os.IsNotExist(err):
		return c, nil
	case err != nil:
		return nil, err
	}
	if err := json.Unmarshal(b, &c.refs); err != nil {
		// A torn file from a killed run: start over.
		c.refs = make(map[string][]refItem)
	}
	return c, nil
}

func (c *refCache) save() error {
	b, err := json.Marshal(c.refs)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(c.path), 0o755); err != nil {
		return err
	}
	tmp := c.path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, c.path)
}

func executableDigest() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// checkJob is one response to compare with the oracle.
type checkJob struct {
	req   *request
	extra []data.Object // appended records visible to the response
	key   string        // cache key; "" = not cached (ingest samples)
}

// check compares every job's response with its reference, computing
// missing references on runtime.NumCPU() goroutines. It returns the
// number of responses that disagree, with a description of the first.
func check(o *oracle, pool []spq.Query, jobs []checkJob, cache *refCache) (int, string) {
	// One computation per distinct uncached reference.
	var todo []int
	queued := map[string]bool{}
	for i, j := range jobs {
		if j.key == "" {
			todo = append(todo, i)
		} else if _, ok := cache.refs[j.key]; !ok && !queued[j.key] {
			queued[j.key] = true
			todo = append(todo, i)
		}
	}
	work := make(chan int)
	var mu sync.Mutex
	fresh := make(map[int][]refItem, len(todo))
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				j := jobs[i]
				ref := toRef(o.reference(pool[j.req.query], j.extra))
				mu.Lock()
				fresh[i] = ref
				mu.Unlock()
			}
		}()
	}
	for _, i := range todo {
		work <- i
	}
	close(work)
	wg.Wait()
	for i, ref := range fresh {
		if k := jobs[i].key; k != "" {
			cache.refs[k] = ref
		}
	}

	bad, first := 0, ""
	for i, j := range jobs {
		ref := fresh[i]
		if j.key != "" {
			ref = cache.refs[j.key]
		}
		if msg := compare(j.req.results, ref); msg != "" {
			bad++
			if first == "" {
				first = fmt.Sprintf("request %d (%s): %s", j.req.id, queryKey(pool[j.req.query]), msg)
			}
		}
	}
	return bad, first
}

// compare returns "" when got equals the reference: the same ids in the
// same order at the same locations, with scores equal up to rounding.
func compare(got []spq.Result, want []refItem) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d results, oracle has %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.ID != w.ID || g.X != w.X || g.Y != w.Y || math.Abs(g.Score-w.Score) > 1e-9 {
			return fmt.Sprintf("rank %d is %+v, oracle has %+v", i, g, w)
		}
	}
	return ""
}
