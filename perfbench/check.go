package main

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// maxJoinPairs is the server's inline cap on /join pairs (its default).
const maxJoinPairs = 10000

// checker compares responses with the oracle and counts failed
// operations per request kind; the first few differences of each kind
// are logged.
type checker struct {
	joins    *joinOracle
	lookups  map[string]*lookupOracle
	joinMemo map[string][]pair
	idsMemo  map[string][]int32   // window and point answers by path
	nearMemo map[string][]float64 // nearest distances by path
	attempt  map[string]int
	failed   map[string]int
	shown    map[string]int
}

func newChecker(ds *dataset, jo *joinOracle) *checker {
	return &checker{
		joins:    jo,
		lookups:  map[string]*lookupOracle{"R": newLookupOracle(ds.R), "S": newLookupOracle(ds.S)},
		joinMemo: map[string][]pair{},
		idsMemo:  map[string][]int32{},
		nearMemo: map[string][]float64{},
		attempt:  map[string]int{},
		failed:   map[string]int{},
		shown:    map[string]int{},
	}
}

// joinAnswer is the oracle's full (A, B)-sorted answer of a join request.
func (c *checker) joinAnswer(q *request) ([]pair, error) {
	key := q.Pred + "|" + num(q.Eps)
	if a, ok := c.joinMemo[key]; ok {
		return a, nil
	}
	a, err := c.joins.answer(q.Pred, q.Eps)
	if err != nil {
		return nil, err
	}
	c.joinMemo[key] = a
	return a, nil
}

// check counts one operation and reports whether it matched the oracle.
func (c *checker) check(rec *record) bool {
	q := rec.req
	cls := q.class()
	c.attempt[cls]++
	var problem string
	switch {
	case rec.err != nil:
		problem = rec.err.Error()
	case q.Kind == "join":
		problem = c.checkJoin(q, rec.resp)
	case q.Kind == "nearest":
		problem = c.checkNearest(q, rec.resp)
	default:
		want, ok := c.idsMemo[q.path]
		if !ok {
			lo := c.lookups[q.Side]
			if q.Kind == "window" {
				want = lo.window(q.Win, q.Eps)
			} else {
				want = lo.point(q.Pt, q.Eps)
			}
			c.idsMemo[q.path] = want
		}
		problem = diffIDs(rec.resp.IDs, want)
	}
	if problem == "" {
		return true
	}
	c.failed[cls]++
	if c.shown[cls] < 3 {
		c.shown[cls]++
		logf("FAILED %s %s: %s", cls, q.path, problem)
	}
	return false
}

func (c *checker) checkJoin(q *request, r *wireResponse) string {
	want, err := c.joinAnswer(q)
	if err != nil {
		return err.Error()
	}
	var msgs []string
	if r.Stats.ResultPairs != int64(len(want)) {
		msgs = append(msgs, fmt.Sprintf("stats.ResultPairs %d, oracle %d", r.Stats.ResultPairs, len(want)))
	}
	n := min(len(want), maxJoinPairs)
	if len(r.Pairs) != n {
		msgs = append(msgs, fmt.Sprintf("%d pairs returned, want %d", len(r.Pairs), n))
	}
	if r.Truncated != (r.Stats.ResultPairs > int64(len(r.Pairs))) {
		msgs = append(msgs, fmt.Sprintf("truncated=%v with %d of %d pairs", r.Truncated, len(r.Pairs), r.Stats.ResultPairs))
	}
	if d := diffPairs(r.Pairs, want[:min(len(want), len(r.Pairs))]); d != "" {
		msgs = append(msgs, d)
	}
	return strings.Join(msgs, "; ")
}

// diffPairs names the first differing pairs of two (A, B)-sorted lists:
// pairs only the response has (false hits) and pairs only the oracle has
// (misses).
func diffPairs(got, want []pair) string {
	var extra, missing []pair
	i, j := 0, 0
	less := func(a, b pair) bool { return a.A < b.A || a.A == b.A && a.B < b.B }
	for i < len(got) || j < len(want) {
		switch {
		case j == len(want) || i < len(got) && less(got[i], want[j]):
			extra = append(extra, got[i])
			i++
		case i == len(got) || less(want[j], got[i]):
			missing = append(missing, want[j])
			j++
		default:
			i++
			j++
		}
	}
	if len(extra) == 0 && len(missing) == 0 {
		return ""
	}
	return fmt.Sprintf("prefix differs: %d false hits %v, %d misses %v",
		len(extra), extra[:min(3, len(extra))], len(missing), missing[:min(3, len(missing))])
}

func diffIDs(got, want []int32) string {
	if slices.Equal(got, want) {
		return ""
	}
	g := append([]int32(nil), got...)
	slices.Sort(g)
	var extra, missing []int32
	for _, id := range g {
		if _, ok := slices.BinarySearch(want, id); !ok {
			extra = append(extra, id)
		}
	}
	for _, id := range want {
		if _, ok := slices.BinarySearch(g, id); !ok {
			missing = append(missing, id)
		}
	}
	return fmt.Sprintf("ids differ: %d returned, oracle %d; extra %v, missing %v",
		len(got), len(want), extra[:min(3, len(extra))], missing[:min(3, len(missing))])
}

func (c *checker) checkNearest(q *request, r *wireResponse) string {
	lo := c.lookups[q.Side]
	want, ok := c.nearMemo[q.path]
	if !ok {
		want = lo.nearest(q.Pt, q.K)
		c.nearMemo[q.path] = want
	}
	if len(r.Neighbors) != len(want) {
		return fmt.Sprintf("%d neighbours, want %d", len(r.Neighbors), len(want))
	}
	got := make([]float64, len(r.Neighbors))
	for i, nb := range r.Neighbors {
		if nb.ID < 0 || int(nb.ID) >= len(lo.polys) {
			return fmt.Sprintf("neighbour id %d out of range", nb.ID)
		}
		if d := lo.polys[nb.ID].DistToPoint(q.Pt); d != nb.Dist {
			return fmt.Sprintf("neighbour %d reports distance %g, geom says %g", nb.ID, nb.Dist, d)
		}
		got[i] = nb.Dist
	}
	if !sort.Float64sAreSorted(got) {
		return fmt.Sprintf("distances not ascending: %v", got)
	}
	if !slices.Equal(got, want) {
		return fmt.Sprintf("distances %v, oracle %v", got, want)
	}
	return ""
}

// summary renders the per-kind attempted/failed counts.
func (c *checker) summary() string {
	var keys []string
	for k := range c.attempt {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var parts []string
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s %d/%d failed", k, c.failed[k], c.attempt[k]))
	}
	return strings.Join(parts, ", ")
}
