package plan

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"spq/internal/data"
	"spq/internal/geo"
)

// pairwiseProbe is the exhaustive distance test the bucket index replaced:
// every probe tests every unit. It is the reference the index must agree
// with exactly.
type pairwiseProbe struct {
	units []unit
	r2    float64
}

func (p pairwiseProbe) withinAny(b geo.Rect) bool {
	for _, u := range p.units {
		if geo.RectMinDist2(b, u.bounds) <= p.r2 {
			return true
		}
	}
	return false
}

func planPairwise(m *data.Manifest, deltaData, deltaFeatures []data.CellStats, in Input) *Decision {
	return planGenerations(m, deltaData, deltaFeatures, in, func(us []unit, r float64) prober {
		return pairwiseProbe{units: us, r2: r * r}
	})
}

// lattice coordinates are multiples of 1/16: exact in binary floating
// point, so gaps of exactly r (including 3-4-5 diagonals) occur often.
const lattice = 1.0 / 16

// randRect draws a rectangle on the lattice over [-0.5, 1.5]²: points,
// horizontal and vertical segments, small boxes and the occasional box
// wide enough to span many index buckets.
func randRect(r *rand.Rand) geo.Rect {
	at := func() float64 { return float64(r.Intn(33)-8) * lattice }
	x, y := at(), at()
	var w, h float64
	switch p := r.Intn(10); {
	case p < 2: // point
	case p < 3:
		w = float64(r.Intn(4)) * lattice
	case p < 4:
		h = float64(r.Intn(4)) * lattice
	case p < 9:
		w, h = float64(r.Intn(3))*lattice, float64(r.Intn(3))*lattice
	default:
		w, h = float64(8+r.Intn(16))*lattice, float64(8+r.Intn(16))*lattice
	}
	return geo.Rect{MinX: x, MinY: y, MaxX: x + w, MaxY: y + h}
}

var vocab = []string{"k0", "k1", "k2", "k3", "k4", "k5", "k6", "k7"}

func randBloom(r *rand.Rand) data.KeywordBloom {
	b := data.NewKeywordBloom()
	for i := r.Intn(3); i > 0; i-- {
		b.Add(vocab[r.Intn(len(vocab))])
	}
	return b
}

// randCells draws n cells of one category; with blocks, about half of
// them carry block zone maps.
func randCells(r *rand.Rand, n int, feature, blocks bool, prefix string) []data.CellStats {
	var out []data.CellStats
	for i := 0; i < n; i++ {
		cs := data.CellStats{Cell: int32(i), File: fmt.Sprintf("%s%d", prefix, i), Bounds: randRect(r)}
		if feature {
			cs.Keywords = randBloom(r)
		}
		if blocks && r.Intn(2) == 0 {
			for j := 1 + r.Intn(6); j > 0; j-- {
				bs := data.BlockStats{Records: 1 + r.Intn(50), Bounds: randRect(r), Length: 100}
				if feature {
					bs.Keywords = randBloom(r)
				}
				cs.Blocks = append(cs.Blocks, bs)
				cs.Records += bs.Records
				cs.Bounds = cs.Bounds.Union(bs.Bounds)
			}
		} else {
			cs.Records = 1 + r.Intn(200)
		}
		out = append(out, cs)
	}
	return out
}

func randRadius(r *rand.Rand) float64 {
	switch r.Intn(4) {
	case 0:
		return 0
	case 1:
		return float64(r.Intn(6)) * lattice // exact lattice gaps, incl. 5/16
	case 2:
		return r.Float64() * 0.3
	}
	return r.Float64() * 2
}

func randKeywords(r *rand.Rand) []string {
	// k8 and k9 are in no summary: some queries prune every feature.
	all := append(vocab, "k8", "k9")
	kw := []string{all[r.Intn(len(all))]}
	if r.Intn(2) == 0 {
		kw = append(kw, all[r.Intn(len(all))])
	}
	return kw
}

// samePlan fails the test unless both planners return deep-equal
// decisions and counters.
func samePlan(t *testing.T, label string, m *data.Manifest, dd, df []data.CellStats, in Input) *Decision {
	t.Helper()
	got := PlanGenerations(m, dd, df, in)
	want := planPairwise(m, dd, df, in)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: bucketed plan differs from pairwise reference\n got %+v\nwant %+v", label, got, want)
	}
	if !reflect.DeepEqual(got.Counters(), want.Counters()) {
		t.Fatalf("%s: counters differ: %v vs %v", label, got.Counters(), want.Counters())
	}
	return got
}

// TestPlanIndexMatchesPairwise: over random manifests with block zone
// maps and delta cells, the bucketed planner's Decision — surviving cells,
// block selections, stats and counters — is identical to exhaustive
// pairwise pruning.
func TestPlanIndexMatchesPairwise(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	var emptyF, emptyD, zeroR, partial int
	for iter := 0; iter < 600; iter++ {
		m := &data.Manifest{
			Grid:     data.GridSpec{Bounds: geo.Rect{MaxX: 1, MaxY: 1}, N: 4},
			Data:     randCells(r, r.Intn(40), false, true, "d"),
			Features: randCells(r, r.Intn(40), true, true, "f"),
		}
		var dd, df []data.CellStats
		if r.Intn(2) == 0 {
			dd = randCells(r, r.Intn(6), false, false, "delta/d")
			df = randCells(r, r.Intn(6), true, false, "delta/f")
		}
		in := Input{Radius: randRadius(r), Keywords: randKeywords(r), ReduceSlots: 4}
		d := samePlan(t, fmt.Sprintf("iter %d", iter), m, dd, df, in)
		switch {
		case len(m.Data)+len(dd) > 0 && len(d.Data)+len(d.DeltaData) == 0:
			emptyD++
		case len(m.Features)+len(df) > 0 && len(d.Features)+len(d.DeltaFeatures) == 0:
			emptyF++
		case d.Stats.RecordsSelected < d.Stats.RecordsTotal:
			partial++
		}
		if in.Radius == 0 {
			zeroR++
		}
	}
	// The generator must actually reach the interesting regimes.
	if emptyF == 0 || emptyD == 0 || zeroR == 0 || partial == 0 {
		t.Errorf("generator coverage: empty features %d, empty data %d, radius 0 %d, partial %d",
			emptyF, emptyD, zeroR, partial)
	}
}

// TestPlanIndexEdgeCases pins the boundaries the bucket index must not get
// wrong: degenerate bounds, radius 0, gaps of exactly r (axis-aligned and
// diagonal), probes outside the indexed units' union bounds, and empty
// survivor sets.
func TestPlanIndexEdgeCases(t *testing.T) {
	pt := func(x, y float64) geo.Rect { return geo.Rect{MinX: x, MinY: y, MaxX: x, MaxY: y} }
	bloom := func(words ...string) data.KeywordBloom {
		b := data.NewKeywordBloom()
		for _, w := range words {
			b.Add(w)
		}
		return b
	}
	cell := func(file string, b geo.Rect, kw data.KeywordBloom) data.CellStats {
		return data.CellStats{File: file, Records: 1, Bounds: b, Keywords: kw}
	}
	manifest := func(dataRects, featRects []geo.Rect) *data.Manifest {
		m := &data.Manifest{Grid: data.GridSpec{Bounds: geo.Rect{MaxX: 1, MaxY: 1}, N: 2}}
		for i, b := range dataRects {
			m.Data = append(m.Data, cell(fmt.Sprintf("d%d", i), b, nil))
		}
		for i, b := range featRects {
			m.Features = append(m.Features, cell(fmt.Sprintf("f%d", i), b, bloom("w")))
		}
		return m
	}
	line := geo.Rect{MinX: 0.25, MinY: 0.5, MaxX: 0.75, MaxY: 0.5} // zero height
	col := geo.Rect{MinX: 0.5, MinY: 0.25, MaxX: 0.5, MaxY: 0.75}  // zero width
	cases := []struct {
		name       string
		data, feat []geo.Rect
		r          float64
		kw         string
		wantData   int
		wantFeat   int
	}{
		{"zero-extent bounds", []geo.Rect{line, pt(0.5, 0.875)}, []geo.Rect{col, pt(0.5, 0.875)}, 0, "w", 2, 2},
		{"radius 0 disjoint", []geo.Rect{pt(0.25, 0.25)}, []geo.Rect{pt(0.25, 0.3125)}, 0, "w", 0, 0},
		{"radius 0 touching", []geo.Rect{{MinX: 0, MinY: 0, MaxX: 0.25, MaxY: 0.25}}, []geo.Rect{{MinX: 0.25, MinY: 0.25, MaxX: 0.5, MaxY: 0.5}}, 0, "w", 1, 1},
		{"exactly r apart", []geo.Rect{pt(0, 0), pt(1, 0)}, []geo.Rect{pt(0.1875, 0.25)}, 0.3125, "w", 1, 1},
		{"just beyond r", []geo.Rect{pt(0, 0)}, []geo.Rect{pt(0.1875, 0.25)}, 0.3124, "w", 0, 0},
		{"axis gap exactly r", []geo.Rect{pt(0, 0)}, []geo.Rect{{MinX: 0.1, MinY: -1, MaxX: 0.2, MaxY: 1}}, 0.1, "w", 1, 1},
		{"probe far outside union", []geo.Rect{pt(-3, 7), pt(0.5, 0.5)}, []geo.Rect{pt(0.5, 0.5625)}, 0.0625, "w", 1, 1},
		{"probe outside union within r", []geo.Rect{pt(-0.5, 0.5)}, []geo.Rect{{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}}, 0.5, "w", 1, 1},
		{"no feature survives keywords", []geo.Rect{pt(0.5, 0.5)}, []geo.Rect{pt(0.5, 0.5)}, 1, "absent", 0, 0},
		{"no data cells", nil, []geo.Rect{pt(0.5, 0.5)}, 1, "w", 0, 0},
		{"no feature cells", []geo.Rect{pt(0.5, 0.5)}, nil, 1, "w", 0, 0},
	}
	for _, c := range cases {
		m := manifest(c.data, c.feat)
		d := samePlan(t, c.name, m, nil, nil, Input{Radius: c.r, Keywords: []string{c.kw}, ReduceSlots: 2})
		if len(d.Data) != c.wantData || len(d.Features) != c.wantFeat {
			t.Errorf("%s: kept %d data / %d feature cells, want %d / %d",
				c.name, len(d.Data), len(d.Features), c.wantData, c.wantFeat)
		}
	}
}

// TestUnitIndexProbes drives the index directly with probes the planner's
// inputs rarely produce: inverted and NaN rectangles, infinite extents,
// huge radii and units spanning every bucket.
func TestUnitIndexProbes(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	nan := math.NaN()
	odd := []geo.Rect{
		{MinX: 1, MinY: 1, MaxX: 0, MaxY: 0}, // inverted
		{MinX: nan, MinY: 0, MaxX: 0.5, MaxY: 0.5},
		{MinX: math.Inf(-1), MinY: 0, MaxX: math.Inf(1), MaxY: 0},
		{MinX: -10, MinY: -10, MaxX: 10, MaxY: 10},
	}
	for iter := 0; iter < 300; iter++ {
		units := make([]unit, 1+r.Intn(60))
		for i := range units {
			units[i].bounds = randRect(r)
			if r.Intn(20) == 0 {
				units[i].bounds = odd[r.Intn(len(odd))]
			}
		}
		rad := randRadius(r)
		if r.Intn(30) == 0 {
			rad = math.Inf(1)
		}
		idx := newUnitIndex(units, rad)
		ref := pairwiseProbe{units: units, r2: rad * rad}
		for p := 0; p < 50; p++ {
			b := randRect(r)
			if r.Intn(20) == 0 {
				b = odd[r.Intn(len(odd))]
			}
			if got, want := idx.withinAny(b), ref.withinAny(b); got != want {
				t.Fatalf("iter %d: withinAny(%v) r=%g = %v, pairwise %v", iter, b, rad, got, want)
			}
		}
	}
}
