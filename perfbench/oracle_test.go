package main

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"spatialjoin/internal/data"
	"spatialjoin/internal/geom"
)

func square(x0, y0, x1, y1 float64) []geom.Point {
	return []geom.Point{{X: x0, Y: y0}, {X: x1, Y: y0}, {X: x1, Y: y1}, {X: x0, Y: y1}}
}

func box(x0, y0, x1, y1 float64, holes ...[]geom.Point) *geom.Polygon {
	return geom.NewPolygon(square(x0, y0, x1, y1), holes...)
}

func has(ps []pair, a, b int32) bool { return slices.Contains(ps, pair{a, b}) }

func mustAnswer(t *testing.T, o *joinOracle, pred string, eps float64) []pair {
	t.Helper()
	a, err := o.answer(pred, eps)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// Hand-built cases with known answers. R and S each hold one object per
// case, so case i is the pair (i, i).
func TestJoinOracleKnownCases(t *testing.T) {
	r := []*geom.Polygon{
		box(0, 0, 1, 1),                         // 0: touches S0 along x = 1
		box(10, 0, 14, 4),                       // 1: contains S1
		box(20, 0, 24, 4, square(21, 1, 23, 3)), // 2: S2 sits in the hole, 0.5 from its rim
		box(30, 0, 31, 1),                       // 3: gap of 2 to S3
	}
	s := []*geom.Polygon{
		box(1, 0, 2, 1),
		box(11, 1, 12, 2),
		box(21.5, 1.5, 22.5, 2.5),
		box(33, 0, 34, 1),
	}
	o := buildJoinOracle(r, s, 3, 2)
	inter := mustAnswer(t, o, "intersects", 0)
	if !slices.Equal(inter, []pair{{0, 0}, {1, 1}}) {
		t.Errorf("intersects = %v, want touching and nested squares only", inter)
	}
	if c := mustAnswer(t, o, "contains", 0); !slices.Equal(c, []pair{{1, 1}}) {
		t.Errorf("contains = %v, want the nested squares only", c)
	}
	for _, tc := range []struct {
		eps  float64
		hole bool
		gap  bool
	}{{0.49, false, false}, {0.5, true, false}, {1.99, true, false}, {2, true, true}} {
		w := mustAnswer(t, o, "within", tc.eps)
		if has(w, 2, 2) != tc.hole || has(w, 3, 3) != tc.gap {
			t.Errorf("within(%g) = %v: hole pair %v (want %v), gap pair %v (want %v)",
				tc.eps, w, has(w, 2, 2), tc.hole, has(w, 3, 3), tc.gap)
		}
	}
	if _, err := o.answer("within", 3.5); err == nil {
		t.Error("ε beyond the table's range must be refused")
	}
}

func TestLookupOracleKnownCases(t *testing.T) {
	lo := newLookupOracle([]*geom.Polygon{
		box(0, 0, 4, 4, square(1, 1, 3, 3)),
		box(4, 0, 5, 1),
	})
	if got := lo.point(geom.Point{X: 2, Y: 2}, 0); len(got) != 0 {
		t.Errorf("point in the hole = %v, want none", got)
	}
	if got := lo.point(geom.Point{X: 2, Y: 2}, 1); !slices.Equal(got, []int32{0}) {
		t.Errorf("point in the hole within 1 = %v, want [0]", got)
	}
	if got := lo.point(geom.Point{X: 4, Y: 0.5}, 0); !slices.Equal(got, []int32{0, 1}) {
		t.Errorf("point on the shared edge = %v, want [0 1]", got)
	}
	if got := lo.window(geom.Rect{MinX: 1.5, MinY: 1.5, MaxX: 2.5, MaxY: 2.5}, 0); len(got) != 0 {
		t.Errorf("window in the hole = %v, want none", got)
	}
	if got := lo.nearest(geom.Point{X: 7, Y: 0.5}, 2); !slices.Equal(got, []float64{2, 3}) {
		t.Errorf("nearest = %v, want [2 3]", got)
	}
}

// smallPair generates a small relation pair over the same territory.
func smallPair(t *testing.T) (r, s []*geom.Polygon) {
	t.Helper()
	gen := func(seed int64) []*geom.Polygon {
		var out []*geom.Polygon
		mc := data.MapConfig{Cells: 150, TargetVerts: 20, HoleFraction: 0.2, Seed: seed}
		if _, err := data.StreamMap(mc, func(_ int32, p *geom.Polygon) error {
			out = append(out, p.Clone())
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	return gen(11), gen(12)
}

func TestMBRSweepMatchesAllPairs(t *testing.T) {
	r, s := smallPair(t)
	mr, ms := bounds(r), bounds(s)
	for _, eps := range []float64{0, 0.01, 0.05} {
		var got []pair
		mbrSweep(mr, ms, eps, func(a, b int32) { got = append(got, pair{a, b}) })
		var want []pair
		for a := range mr {
			for b := range ms {
				if mr[a].Expand(eps).Intersects(ms[b]) {
					want = append(want, pair{int32(a), int32(b)})
				}
			}
		}
		slices.SortFunc(got, func(x, y pair) int {
			if x.A != y.A {
				return int(x.A - y.A)
			}
			return int(x.B - y.B)
		})
		if !slices.Equal(got, want) {
			t.Fatalf("eps %g: sweep found %d pairs, all-pairs %d", eps, len(got), len(want))
		}
	}
}

func subset(a, b []pair) bool {
	for _, p := range a {
		if !has(b, p.A, p.B) {
			return false
		}
	}
	return true
}

func TestJoinOracleProperties(t *testing.T) {
	r, s := smallPair(t)
	o := buildJoinOracle(r, s, 0.05, 2)
	inter := mustAnswer(t, o, "intersects", 0)
	cont := mustAnswer(t, o, "contains", 0)
	if len(inter) == 0 {
		t.Fatal("no intersecting pairs: the fixture does not exercise the oracle")
	}
	if !subset(cont, inter) {
		t.Error("contains ⊄ intersects")
	}
	prev := mustAnswer(t, o, "within", 0)
	if !slices.Equal(prev, inter) {
		t.Errorf("within(0) has %d pairs, intersects %d", len(prev), len(inter))
	}
	for _, eps := range []float64{0.001, 0.005, 0.01, 0.05} {
		w := mustAnswer(t, o, "within", eps)
		if !subset(prev, w) {
			t.Errorf("within is not monotone at ε %g", eps)
		}
		prev = w
	}
}

func TestLookupOracleProperties(t *testing.T) {
	r, _ := smallPair(t)
	lo := newLookupOracle(r)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		x, y := rng.Float64(), rng.Float64()
		w := geom.Rect{MinX: x, MinY: y, MaxX: x + 0.05*rng.Float64(), MaxY: y + 0.05*rng.Float64()}
		plain, grown := lo.window(w, 0), lo.window(w, 0.02)
		for _, id := range plain {
			if _, ok := slices.BinarySearch(grown, id); !ok {
				t.Fatalf("window(ε) misses object %d of window", id)
			}
		}
		p := geom.Point{X: x, Y: y}
		d := lo.nearest(p, 7)
		if !slices.IsSorted(d) {
			t.Fatalf("nearest distances not ascending: %v", d)
		}
		all := make([]float64, len(r))
		for j, poly := range r {
			all[j] = poly.DistToPoint(p)
		}
		slices.Sort(all)
		if !slices.Equal(d, all[:7]) {
			t.Fatalf("nearest %v, brute force %v", d, all[:7])
		}
		if inside := lo.point(p, 0); len(inside) > 0 && d[0] != 0 {
			t.Fatalf("point inside %v but nearest distance %g", inside, d[0])
		}
	}
}

func TestJoinOracleCacheRoundTrip(t *testing.T) {
	o := &joinOracle{MaxEps: 0.25, Rows: []joinRow{{1, 2, 0, true}, {3, 4, math.Nextafter(0.2, 1), false}}}
	path := t.TempDir() + "/o.bin"
	if err := saveJoinOracle(path, o); err != nil {
		t.Fatal(err)
	}
	back, err := loadJoinOracle(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.MaxEps != o.MaxEps || !slices.Equal(back.Rows, o.Rows) {
		t.Fatalf("round trip: %+v, want %+v", back, o)
	}
}
