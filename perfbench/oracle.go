package main

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync"

	"spatialjoin/internal/geom"
)

// The oracle answers every benchmark request from the generated polygons
// alone, with geom's brute-force predicates and its own MBR sweep. It
// shares no code with the pipeline under test: nothing from approx,
// exact, trstar, rstar, multistep, shard or plan.

// pair is one (R object, S object) answer of a join.
type pair struct{ A, B int32 }

// joinRow is one pair of the oracle's join table: every (a, b) whose
// region distance is at most the largest ε the workloads use.
type joinRow struct {
	A, B     int32
	Dist     float64 // geom DistToPolygon; 0 exactly when the regions intersect
	Contains bool    // R[a] contains S[b] (geom ContainsPolygon)
}

// joinOracle holds the join table, sorted by (A, B).
type joinOracle struct {
	MaxEps float64
	Rows   []joinRow
}

// mbrSweep calls fn for every (a, b) with r[a] grown by eps meeting s[b]:
// a plane sweep over x, independent of the program's R*-tree join.
func mbrSweep(r, s []geom.Rect, eps float64, fn func(a, b int32)) {
	type ev struct {
		lo, hi float64
		id     int32
	}
	er := make([]ev, len(r))
	for i, m := range r {
		er[i] = ev{m.MinX - eps, m.MaxX + eps, int32(i)}
	}
	es := make([]ev, len(s))
	for i, m := range s {
		es[i] = ev{m.MinX, m.MaxX, int32(i)}
	}
	byLo := func(x, y ev) int {
		switch {
		case x.lo < y.lo:
			return -1
		case x.lo > y.lo:
			return 1
		}
		return int(x.id - y.id)
	}
	slices.SortFunc(er, byLo)
	slices.SortFunc(es, byLo)
	// For each R interval, scan the S intervals whose lo falls inside it;
	// and for each S interval, the R intervals whose lo falls inside it.
	// Every overlapping pair has exactly one lo inside the other interval
	// (ties go to the R side), so each pair is reported once.
	j := 0
	for _, a := range er {
		for j < len(es) && es[j].lo < a.lo {
			j++
		}
		for k := j; k < len(es) && es[k].lo <= a.hi; k++ {
			if yOverlap(r[a.id], s[es[k].id], eps) {
				fn(a.id, es[k].id)
			}
		}
	}
	i := 0
	for _, b := range es {
		for i < len(er) && er[i].lo <= b.lo {
			i++
		}
		for k := i; k < len(er) && er[k].lo <= b.hi; k++ {
			if yOverlap(r[er[k].id], s[b.id], eps) {
				fn(er[k].id, b.id)
			}
		}
	}
}

func yOverlap(a, b geom.Rect, eps float64) bool {
	return a.MinY-eps <= b.MaxY && b.MinY <= a.MaxY+eps
}

// buildJoinOracle computes the join table by brute force over the MBR
// sweep's candidates, on workers goroutines.
func buildJoinOracle(r, s []*geom.Polygon, maxEps float64, workers int) *joinOracle {
	mr, ms := bounds(r), bounds(s)
	var cands []pair
	mbrSweep(mr, ms, maxEps, func(a, b int32) { cands = append(cands, pair{a, b}) })
	if workers < 1 {
		workers = 1
	}
	parts := make([][]joinRow, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var out []joinRow
			for i := w; i < len(cands); i += workers {
				c := cands[i]
				pa, pb := r[c.A], s[c.B]
				row := joinRow{A: c.A, B: c.B}
				if !pa.Intersects(pb) {
					row.Dist = pa.DistToPolygon(pb)
					if row.Dist > maxEps {
						continue
					}
				}
				row.Contains = pa.ContainsPolygon(pb)
				out = append(out, row)
			}
			parts[w] = out
		}(w)
	}
	wg.Wait()
	o := &joinOracle{MaxEps: maxEps}
	for _, p := range parts {
		o.Rows = append(o.Rows, p...)
	}
	slices.SortFunc(o.Rows, func(x, y joinRow) int {
		if x.A != y.A {
			return int(x.A - y.A)
		}
		return int(x.B - y.B)
	})
	return o
}

// answer returns the (A, B)-sorted answer of one join request.
func (o *joinOracle) answer(pred string, eps float64) ([]pair, error) {
	var keep func(joinRow) bool
	switch pred {
	case "intersects":
		keep = func(r joinRow) bool { return r.Dist == 0 }
	case "contains":
		keep = func(r joinRow) bool { return r.Contains }
	case "within":
		if eps > o.MaxEps {
			return nil, fmt.Errorf("oracle: ε %g beyond the table's %g", eps, o.MaxEps)
		}
		keep = func(r joinRow) bool { return r.Dist <= eps }
	default:
		return nil, fmt.Errorf("oracle: unknown predicate %q", pred)
	}
	var out []pair
	for _, r := range o.Rows {
		if keep(r) {
			out = append(out, pair{r.A, r.B})
		}
	}
	return out, nil
}

func bounds(ps []*geom.Polygon) []geom.Rect {
	out := make([]geom.Rect, len(ps))
	for i, p := range ps {
		out[i] = p.Bounds()
	}
	return out
}

// lookupOracle answers window, point and nearest requests over one
// relation by scanning every object.
type lookupOracle struct {
	polys []*geom.Polygon
	mbrs  []geom.Rect
}

func newLookupOracle(ps []*geom.Polygon) *lookupOracle {
	return &lookupOracle{polys: ps, mbrs: bounds(ps)}
}

// window returns the ascending IDs of the objects within eps of w
// (eps = 0: the objects intersecting w).
func (o *lookupOracle) window(w geom.Rect, eps float64) []int32 {
	grown := w.Expand(eps)
	var out []int32
	for i, m := range o.mbrs {
		if m.Intersects(grown) && o.polys[i].DistToRect(w) <= eps {
			out = append(out, int32(i))
		}
	}
	return out
}

// point returns the ascending IDs of the objects within eps of p (eps =
// 0: the objects whose closed region contains p).
func (o *lookupOracle) point(p geom.Point, eps float64) []int32 {
	var out []int32
	for i, m := range o.mbrs {
		if m.Expand(eps).ContainsPoint(p) && o.polys[i].DistToPoint(p) <= eps {
			out = append(out, int32(i))
		}
	}
	return out
}

// nearest returns the k smallest region distances to p, ascending. The
// MBR distance bounds the region distance from below: the exact
// distances of the k objects with the smallest bounds give an upper
// bound D on the k-th distance, and only objects whose bound is at most
// D can be among the k nearest.
func (o *lookupOracle) nearest(p geom.Point, k int) []float64 {
	k = min(k, len(o.polys))
	pr := geom.Rect{MinX: p.X, MinY: p.Y, MaxX: p.X, MaxY: p.Y}
	lb := make([]float64, len(o.mbrs))
	var first []int // the k smallest bounds so far, ascending
	for i, m := range o.mbrs {
		lb[i] = m.Dist(pr)
		if len(first) == k && lb[i] >= lb[first[k-1]] {
			continue
		}
		j, _ := slices.BinarySearchFunc(first, lb[i], func(x int, v float64) int { return cmpFloat(lb[x], v) })
		first = slices.Insert(first, j, i)
		if len(first) > k {
			first = first[:k]
		}
	}
	bound := 0.0
	for _, i := range first {
		bound = math.Max(bound, o.polys[i].DistToPoint(p))
	}
	var d []float64
	for i, b := range lb {
		if b <= bound {
			d = append(d, o.polys[i].DistToPoint(p))
		}
	}
	slices.Sort(d)
	return d[:k]
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// The join table is cached on disk, keyed by the input make-up and a
// checksum of the generated polygons; a stale or damaged file is
// rebuilt.

const oracleMagic = "perfbench-join-oracle-v1\n"

func oraclePath(dir, key string) string {
	return filepath.Join(dir, "oracle-"+key+".bin")
}

func saveJoinOracle(path string, o *joinOracle) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	w.WriteString(oracleMagic)
	var hdr [16]byte
	binary.LittleEndian.PutUint64(hdr[0:], math.Float64bits(o.MaxEps))
	binary.LittleEndian.PutUint64(hdr[8:], uint64(len(o.Rows)))
	w.Write(hdr[:])
	var rec [17]byte
	for _, r := range o.Rows {
		binary.LittleEndian.PutUint32(rec[0:], uint32(r.A))
		binary.LittleEndian.PutUint32(rec[4:], uint32(r.B))
		binary.LittleEndian.PutUint64(rec[8:], math.Float64bits(r.Dist))
		rec[16] = 0
		if r.Contains {
			rec[16] = 1
		}
		w.Write(rec[:])
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

func loadJoinOracle(path string) (*joinOracle, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rd := bufio.NewReader(f)
	magic := make([]byte, len(oracleMagic))
	if _, err := io.ReadFull(rd, magic); err != nil || string(magic) != oracleMagic {
		return nil, errors.New("oracle cache: bad header")
	}
	var hdr [16]byte
	if _, err := io.ReadFull(rd, hdr[:]); err != nil {
		return nil, err
	}
	o := &joinOracle{MaxEps: math.Float64frombits(binary.LittleEndian.Uint64(hdr[0:]))}
	n := binary.LittleEndian.Uint64(hdr[8:])
	if n > 1<<28 {
		return nil, errors.New("oracle cache: implausible row count")
	}
	o.Rows = make([]joinRow, n)
	var rec [17]byte
	for i := range o.Rows {
		if _, err := io.ReadFull(rd, rec[:]); err != nil {
			return nil, err
		}
		o.Rows[i] = joinRow{
			A:        int32(binary.LittleEndian.Uint32(rec[0:])),
			B:        int32(binary.LittleEndian.Uint32(rec[4:])),
			Dist:     math.Float64frombits(binary.LittleEndian.Uint64(rec[8:])),
			Contains: rec[16] == 1,
		}
	}
	if _, err := rd.ReadByte(); err != io.EOF {
		return nil, errors.New("oracle cache: trailing bytes")
	}
	return o, nil
}
