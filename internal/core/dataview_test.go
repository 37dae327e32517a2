package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"spq/internal/data"
	"spq/internal/geo"
	"spq/internal/grid"
	"spq/internal/mapreduce"
)

// naiveDataView is the reference layout BuildDataView must reproduce: each
// cell's objects appended one by one in source order, each indexed cell
// permuted into bucket order through a fresh array, and separate id and
// coordinate columns per cell.
func naiveDataView(g *grid.Grid, objs []data.Object) []viewCell {
	perCell := make([][]data.Object, g.NumCells())
	for _, o := range objs {
		c := g.CellOf(o.Loc)
		perCell[c] = append(perCell[c], o)
	}
	cells := make([]viewCell, g.NumCells())
	for i, objs := range perCell {
		c := &cells[i]
		c.index = buildObjGrid(objs)
		if c.index != nil {
			perm := make([]data.Object, len(objs))
			for j, oi := range c.index.idx {
				perm[j] = objs[oi]
				c.index.idx[j] = int32(j)
			}
			objs = perm
		}
		for _, o := range objs {
			c.ids = append(c.ids, o.ID)
			c.xs = append(c.xs, o.Loc.X)
			c.ys = append(c.ys, o.Loc.Y)
		}
	}
	return cells
}

// Property: over random inputs — uniform and clustered, with empty cells,
// cells below objGridMinObjs and large indexed cells, split any number of
// ways — the single-backing-array view matches the naive per-cell-append
// layout exactly: cell membership and order, coordinate columns, and the
// bucket index.
func TestBuildDataViewMatchesNaiveLayout(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	var empty, small, indexed int // cell classes covered, over all trials
	for trial := 0; trial < 60; trial++ {
		n := r.Intn(3000)
		gridN := 1 + r.Intn(12)
		clustered := trial%2 == 1
		objs := make([]data.Object, n)
		for i := range objs {
			p := geo.Point{X: r.Float64(), Y: r.Float64()}
			if clustered {
				// Most objects in one corner cell: a large indexed cell
				// beside many small and empty ones.
				p = geo.Point{X: r.Float64() * 0.15, Y: r.Float64() * 0.15}
				if i%5 == 0 {
					p = geo.Point{X: r.Float64(), Y: r.Float64()}
				}
			}
			objs[i] = data.Object{Kind: data.DataObject, ID: uint64(r.Int63()), Loc: p}
		}
		g := grid.New(unitBounds, gridN, gridN)
		splits := 1 + r.Intn(8)
		label := fmt.Sprintf("trial %d (n=%d grid=%d splits=%d clustered=%v)", trial, n, gridN, splits, clustered)

		v, err := BuildDataView(g, mapreduce.NewMemorySource(objs, splits))
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if v.Records() != n || !v.matches(g) {
			t.Fatalf("%s: view holds %d records (want %d), matches grid %v", label, v.Records(), n, v.matches(g))
		}
		want := naiveDataView(g, objs)
		for id := range want {
			got, ref := v.cells[id], want[id]
			switch {
			case len(ref.ids) == 0:
				empty++
			case ref.index == nil:
				small++
			default:
				indexed++
			}
			if len(got.ids) != len(ref.ids) || len(got.xs) != len(ref.xs) || len(got.ys) != len(ref.ys) {
				t.Fatalf("%s cell %d: %d ids / %d xs / %d ys, want %d / %d / %d", label, id,
					len(got.ids), len(got.xs), len(got.ys), len(ref.ids), len(ref.xs), len(ref.ys))
			}
			for j := range ref.ids {
				if got.ids[j] != ref.ids[j] || got.xs[j] != ref.xs[j] || got.ys[j] != ref.ys[j] {
					t.Fatalf("%s cell %d slot %d: got %d (%g,%g), want %d (%g,%g)", label, id, j,
						got.ids[j], got.xs[j], got.ys[j], ref.ids[j], ref.xs[j], ref.ys[j])
				}
			}
			if !reflect.DeepEqual(got.index, ref.index) {
				t.Fatalf("%s cell %d: bucket index differs\ngot:  %+v\nwant: %+v", label, id, got.index, ref.index)
			}
			if c := v.cell(grid.CellID(id)); (c == nil) != (len(ref.ids) == 0) {
				t.Fatalf("%s cell %d: cell() = %v for %d objects", label, id, c, len(ref.ids))
			}
			// Cells are capped sub-slices: growing one can never write
			// into its neighbour.
			if cap(got.ids) != len(got.ids) || cap(got.xs) != len(got.xs) || cap(got.ys) != len(got.ys) {
				t.Fatalf("%s cell %d: cell slices are not capped at their length", label, id)
			}
		}
	}
	if empty == 0 || small == 0 || indexed == 0 {
		t.Fatalf("inputs lack a cell class: %d empty, %d small, %d indexed cells", empty, small, indexed)
	}
}

// A data view must refuse feature objects: accepting one would silently
// drop its contribution from every query using the view.
func TestBuildDataViewRejectsFeatures(t *testing.T) {
	objs := []data.Object{
		{Kind: data.DataObject, ID: 1, Loc: geo.Point{X: 0.1, Y: 0.1}},
		{Kind: data.FeatureObject, ID: 2, Loc: geo.Point{X: 0.2, Y: 0.2}},
	}
	if _, err := BuildDataView(grid.New(unitBounds, 4, 4), mapreduce.NewMemorySource(objs, 1)); err == nil {
		t.Fatal("view built over a feature object")
	}
}

// Property: a view-seeded reduce group that also receives data objects
// in-stream copies the view cell out before growing, and scores exactly
// as if every object had arrived in-stream — for every algorithm and
// scoring mode it supports. The view itself stays unchanged.
func TestDataViewWithInStreamData(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		objs, q := randomWorkload(seed, 4000, 40, 4)
		var viewed, streamed []data.Object
		for i, o := range objs {
			if o.Kind == data.DataObject && i%3 != 0 {
				viewed = append(viewed, o)
			} else {
				streamed = append(streamed, o)
			}
		}
		const gridN = 6
		g := grid.New(unitBounds, gridN, gridN)
		view, err := BuildDataView(g, mapreduce.NewMemorySource(viewed, 4))
		if err != nil {
			t.Fatal(err)
		}
		before := naiveDataView(g, viewed)
		for _, alg := range Algorithms() {
			for _, mode := range []ScoringMode{ScoreRange, ScoreInfluence, ScoreNearest} {
				if !alg.SupportsMode(mode) {
					continue
				}
				qm := q
				qm.Mode = mode
				rep, err := Run(alg, mapreduce.NewMemorySource(streamed, 5), qm, Options{
					Cluster: mapreduce.NewCluster(nil, 3, 3), Bounds: unitBounds, GridN: gridN, DataView: view,
				})
				if err != nil {
					t.Fatal(err)
				}
				assertModeTopK(t, rep.Results, NaiveCentralized(objs, qm), objs, qm)
			}
		}
		for id := range before {
			if !reflect.DeepEqual(view.cells[id].ids, before[id].ids) || !reflect.DeepEqual(view.cells[id].xs, before[id].xs) {
				t.Fatalf("seed %d: reduce tasks wrote into view cell %d", seed, id)
			}
		}
	}
}
