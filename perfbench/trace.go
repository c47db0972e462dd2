package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"spatialjoin/internal/approx"
	"spatialjoin/internal/exact"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/multistep"
	"spatialjoin/internal/ops"
	"spatialjoin/internal/rstar"
	"spatialjoin/internal/serve"
	"spatialjoin/internal/shard"
	"spatialjoin/internal/trstar"
)

// span is one timed call into a layer's public function. Spans of one
// replayed request share Req; Parent is the ID of the enclosing span
// (-1 for the request's root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name string, parent, req int) int {
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Req: req, Name: name,
		Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id]
	s.End = int64(time.Since(t.t0))
	return time.Duration(s.End - s.Start)
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfByLayer derives each layer's self time from the spans, request by
// request. Each layer's span times a call that reaches the layers below
// it, and the replay times the calls into those layers on their own, so
// a layer's self time is its span minus the spans one layer down: serve
// = handler − shard call (a cached response makes no shard call), shard
// = shard call − the tiles' multistep calls, multistep = tile calls −
// step replays; rstar, approx and exact are leaves. plan.explain is its
// own call.
func (t *tracer) selfByLayer() map[string]time.Duration {
	type sums struct{ handler, cachedHandler, shard, tiles, steps, explain time.Duration }
	per := map[int]*sums{}
	leaves := map[string]time.Duration{}
	for _, s := range t.spans {
		p := per[s.Req]
		if p == nil {
			p = &sums{}
			per[s.Req] = p
		}
		d := time.Duration(s.End - s.Start)
		switch layer, _, _ := strings.Cut(s.Name, "."); {
		case s.Name == "serve.handler":
			p.handler += d
		case s.Name == "serve.handler.cached":
			p.cachedHandler += d
		case layer == "shard":
			p.shard += d
		case layer == "multistep":
			p.tiles += d
		case layer == "plan":
			p.explain += d
		case layer == "rstar" || layer == "approx" || layer == "exact":
			p.steps += d
			leaves[layer] += d
		}
	}
	out := leaves
	for _, p := range per {
		out["serve"] += p.cachedHandler
		if p.handler > 0 {
			out["serve"] += p.handler - p.shard
		}
		out["shard"] += p.shard - p.tiles
		out["multistep"] += p.tiles - p.steps
		out["plan"] += p.explain
	}
	return out
}

// steps accumulates the step-1/2/3 counts and times of replayed
// requests, as the server reports them for a join.
type steps struct {
	candidates, rectTests   int64
	filterHits, falseHits   int64
	exactTests, exactHits   int64
	results                 int64
	pageMissR, pageMissS    int64
	pageHits                int64
	classified              int64
	rstarT, approxT, exactT time.Duration
}

func (a *steps) add(b steps) {
	a.candidates += b.candidates
	a.filterHits += b.filterHits
	a.falseHits += b.falseHits
	a.exactTests += b.exactTests
	a.exactHits += b.exactHits
	a.results += b.results
	a.pageMissR += b.pageMissR
	a.pageMissS += b.pageMissS
	a.pageHits += b.pageHits
	a.classified += b.classified
	a.rstarT += b.rstarT
	a.approxT += b.approxT
	a.exactT += b.exactT
}

// replay re-runs the first rounds of the measured sequence in-process on
// the same stores, one request at a time on one CPU, so spans nest
// without overlap. Per request it times the in-process HTTP handler,
// the shard entry point the handler calls, the planner (joins), each
// tile's multistep execution, and a replay of steps 1-3 through rstar,
// approx, trstar/exact and storage sessions. Replayed join step counts
// must equal the stats the server returned for the same request.
func replay(wl *workload, ds *dataset, jo *joinOracle, runDir string, recs []record, layer map[string]metric, noFilter bool) (bool, error) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)

	cfg := multistep.DefaultConfig()
	cfg.UseFilter = !noFilter
	cat := serve.NewCatalog()
	for _, side := range []string{"R", "S"} {
		if err := cat.LoadDir(ds.relName(side), filepath.Join(runDir, side), cfg); err != nil {
			return false, err
		}
	}
	srv := serve.NewServer(cat)
	srv.CacheBytes = wl.cacheBytes
	srv.BatchWindow = 2 * time.Millisecond
	h := srv.Handler()
	eR, _ := cat.Get(ds.relName("R"))
	eS, _ := cat.Get(ds.relName("S"))
	side := map[string]*shard.Sharded{"R": eR.Sh, "S": eS.Sh}

	n := 0
	for i := 0; i < wl.replayRounds; i++ {
		n += len(wl.round(i))
	}
	n = min(n, len(recs))
	tr := &tracer{t0: time.Now()}
	ctx := context.Background()
	ok := true
	var (
		handlerT, selfT, shardT, shardSelfT, explainT time.Duration
		bytes, tiles                                  int64
		joins                                         int
		tot                                           steps
		faults                                        = map[string][2]int{} // join → false hits, misses
	)
	for i := 0; i < n; i++ {
		rec := &recs[i]
		if rec.err != nil {
			continue // no server answer to replay against; counted as failed already
		}
		q := rec.req
		root := tr.begin("replay.request", -1, i)

		sp := tr.begin("serve.handler", root, i)
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("GET", q.path, nil))
		hd := tr.end(sp)
		handlerT += hd
		bytes += int64(rr.Body.Len())
		if rr.Code != 200 {
			return false, fmt.Errorf("replay %s: HTTP %d", q.path, rr.Code)
		}
		// A response served from the result cache made no shard call: its
		// whole handler time is the serving layer's own.
		cached := strings.Contains(rr.Body.String()[:min(rr.Body.Len(), 40)], `"cached": true`)
		if cached {
			tr.spans[sp].Name = "serve.handler.cached"
		}
		serveSelf := func(shardCall time.Duration) time.Duration {
			if cached {
				return hd
			}
			return hd - shardCall
		}

		var st steps
		if q.Kind == "join" {
			joins++
			pred := joinPredicate(q)
			opts := []multistep.Option{multistep.WithPredicate(pred), multistep.WithPlan(), multistep.WithLimit(-1)}
			sp = tr.begin("shard.join", root, i)
			outs, err := shard.JoinBatch(ctx, eR.Sh, eS.Sh, nil, [][]multistep.Option{opts})
			sd := tr.end(sp)
			if err != nil {
				return false, err
			}
			shardT += sd
			selfT += serveSelf(sd)
			tiles += int64(outs[0].Stats.SubJoins)
			if fh, miss := countDiff(outs[0].Pairs, jo, q); fh+miss > 0 {
				faults[q.Pred+"("+num(q.Eps/ds.cell)+" cell)"] = [2]int{fh, miss}
			}

			sp = tr.begin("plan.explain", root, i)
			if _, err := shard.Explain(ctx, eR.Sh, eS.Sh, false, multistep.WithPredicate(pred), multistep.WithPlan()); err != nil {
				return false, err
			}
			explainT += tr.end(sp)

			var tileT time.Duration
			tp := tr.begin("replay.tiles", root, i)
			for _, rt := range eR.Sh.Tiles {
				for _, stl := range eS.Sh.Tiles {
					if !rt.MBR.Expand(q.Eps).Intersects(stl.MBR) {
						continue
					}
					sp = tr.begin("multistep.join", tp, i)
					sR, sS := rt.Rel.NewSession(), stl.Rel.NewSession()
					if _, _, err := multistep.Join(ctx, rt.Rel, stl.Rel, multistep.WithPredicate(pred),
						multistep.WithPlan(), multistep.WithSessions(sR, sS)); err != nil {
						return false, err
					}
					tileT += tr.end(sp)
				}
			}
			tr.end(tp)
			shardSelfT += sd - tileT
			stepsSpan := tr.begin("replay.steps", root, i)
			for _, rt := range eR.Sh.Tiles {
				for _, stl := range eS.Sh.Tiles {
					if rt.MBR.Expand(q.Eps).Intersects(stl.MBR) {
						st.add(joinSteps(tr, stepsSpan, i, rt.Rel, stl.Rel, q, rec.resp.Plan, eR.Cfg))
					}
				}
			}
			tr.end(stepsSpan)
			if d := compareSteps(st, rec.resp.Stats); d != "" {
				ok = false
				logf("TRACE MISMATCH %s: %s", q.path, d)
			}
		} else {
			sh := side[q.Side]
			opts := lookupOptions(q)
			sp = tr.begin("shard.query", root, i)
			if _, err := shard.QueryCached(ctx, sh, nil, opts...); err != nil {
				return false, err
			}
			sd := tr.end(sp)
			shardT += sd
			selfT += serveSelf(sd)
			var tileT time.Duration
			routed := lookupTiles(sh, q)
			tp := tr.begin("replay.tiles", root, i)
			for _, t := range routed {
				tiles++
				sp = tr.begin("multistep.query", tp, i)
				if _, err := multistep.Query(ctx, t.Rel, append(opts, multistep.WithSession(t.Rel.NewSession()))...); err != nil {
					return false, err
				}
				tileT += tr.end(sp)
			}
			tr.end(tp)
			shardSelfT += sd - tileT
			stepsSpan := tr.begin("replay.steps", root, i)
			for _, t := range routed {
				st.add(lookupSteps(tr, stepsSpan, i, t.Rel, q))
			}
			tr.end(stepsSpan)
		}
		tot.add(st)
		tr.end(root)
	}

	per := func(v float64) float64 { return v / float64(max(n, 1)) }
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	nsPer := func(d time.Duration, c int64) float64 {
		if c == 0 {
			return 0
		}
		return float64(d) / float64(c)
	}
	layer["serve.handler_ms"] = metric{per(ms(handlerT)), "ms"}
	layer["serve.self_ms"] = metric{per(ms(selfT)), "ms"}
	layer["serve.response_bytes"] = metric{per(float64(bytes)), "bytes"}
	layer["shard.call_ms"] = metric{per(ms(shardT)), "ms"}
	layer["shard.self_ms"] = metric{per(ms(shardSelfT)), "ms"}
	layer["shard.tiles_per_request"] = metric{per(float64(tiles)), "count"}
	layer["plan.explain_ms"] = metric{ms(explainT) / float64(max(joins, 1)), "ms"}
	layer["rstar.ms"] = metric{per(ms(tot.rstarT)), "ms"}
	layer["rstar.candidates"] = metric{per(float64(tot.candidates)), "count"}
	layer["rstar.ns_per_candidate"] = metric{nsPer(tot.rstarT, tot.candidates), "ns"}
	layer["storage.page_misses"] = metric{per(float64(tot.pageMissR + tot.pageMissS)), "count"}
	layer["storage.hit_ratio"] = metric{ratio(tot.pageHits, tot.pageHits+tot.pageMissR+tot.pageMissS), "ratio"}
	layer["approx.ms"] = metric{per(ms(tot.approxT)), "ms"}
	layer["approx.ns_per_candidate"] = metric{nsPer(tot.approxT, tot.classified), "ns"}
	layer["approx.identified_ratio"] = metric{ratio(tot.filterHits+tot.falseHits, tot.classified), "ratio"}
	layer["exact.ms"] = metric{per(ms(tot.exactT)), "ms"}
	layer["exact.tests"] = metric{per(float64(tot.exactTests)), "count"}
	layer["exact.ns_per_test"] = metric{nsPer(tot.exactT, tot.exactTests), "ns"}
	layer["exact.hit_ratio"] = metric{ratio(tot.exactHits, tot.exactTests), "ratio"}

	var b strings.Builder
	self := tr.selfByLayer()
	names := make([]string, 0, len(self))
	for k := range self {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(&b, " %s=%.1fms", k, ms(self[k]))
	}
	logf("traced replay of %d requests (%d joins) on 1 CPU; self time by layer:%s", n, joins, b.String())
	keys := make([]string, 0, len(faults))
	for k := range faults {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		logf("known fault, %s: complete answer has %d false hits and %d misses against the oracle", k, faults[k][0], faults[k][1])
	}
	layer["trace.overhead_ms"] = metric{per(ms(spanCost() * time.Duration(len(tr.spans)))), "ms"}
	path := filepath.Join(filepath.Dir(filepath.Dir(runDir)), "traces", filepath.Base(runDir)+".jsonl")
	if err := tr.write(path); err != nil {
		return false, err
	}
	logf("spans written to %s", path)
	return ok, nil
}

// spanCost is the mean cost of recording one span, measured on a
// scratch tracer.
func spanCost() time.Duration {
	const n = 20000
	t := &tracer{t0: time.Now(), spans: make([]span, 0, n)}
	start := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.begin("x", -1, i))
	}
	return time.Since(start) / n
}

func joinPredicate(q *request) multistep.Predicate {
	switch q.Pred {
	case "contains":
		return multistep.Contains()
	case "within":
		return multistep.WithinDistance(q.Eps)
	}
	return multistep.Intersects()
}

func lookupOptions(q *request) []multistep.Option {
	switch q.Kind {
	case "window":
		return []multistep.Option{multistep.ForWindow(q.Win), multistep.WithPredicate(multistep.WithinDistance(q.Eps)), multistep.WithPlan()}
	case "point":
		return []multistep.Option{multistep.ForPoint(q.Pt), multistep.WithPredicate(multistep.WithinDistance(q.Eps)), multistep.WithPlan()}
	}
	return []multistep.Option{multistep.ForNearest(q.Pt, q.K)}
}

// lookupTiles is the tile routing of a lookup: every tile for nearest,
// else the tiles whose MBR meets the ε-grown target.
func lookupTiles(sh *shard.Sharded, q *request) []*shard.Tile {
	if q.Kind == "nearest" {
		return sh.Tiles
	}
	var out []*shard.Tile
	for _, t := range sh.Tiles {
		if t.MBR.Intersects(lookupRect(q).Expand(q.Eps)) {
			out = append(out, t)
		}
	}
	return out
}

func lookupRect(q *request) geom.Rect {
	if q.Kind == "window" {
		return q.Win
	}
	return geom.Rect{MinX: q.Pt.X, MinY: q.Pt.Y, MaxX: q.Pt.X, MaxY: q.Pt.Y}
}

// joinSteps replays one tile pair of a join through the public step
// functions: the R*-tree join on fresh storage sessions (step 1), the
// approximation filter (step 2) and the exact engine the server's plan
// echo names (step 3).
func joinSteps(tr *tracer, parent, req int, r, s *multistep.Relation, q *request, pl wirePlan, cfg multistep.Config) steps {
	var st steps
	sR, sS := r.NewSession(), s.NewSession()
	eps := 0.0
	if q.Pred == "within" {
		eps = q.Eps
	}
	var cands [][2]int32
	sp := tr.begin("rstar.join", parent, req)
	rstar.JoinAccessEps(r.Tree, s.Tree, sR, sS, eps, nil, func(a, b rstar.Item) {
		if q.Pred == "contains" && !r.Objects[a.ID].Approx.MBR.Contains(s.Objects[b.ID].Approx.MBR) {
			return
		}
		cands = append(cands, [2]int32{a.ID, b.ID})
	})
	st.rstarT = tr.end(sp)
	st.candidates = int64(len(cands))
	st.pageMissR, st.pageMissS = sR.Misses(), sS.Misses()
	st.pageHits = sR.Hits() + sS.Hits()

	undecided := cands
	if pl.Filter {
		undecided = nil
		sp = tr.begin("approx.classify", parent, req)
		for _, c := range cands {
			a, b := r.Objects[c[0]].Approx, s.Objects[c[1]].Approx
			var cl approx.Class
			switch q.Pred {
			case "contains":
				cl = cfg.Filter.ClassifyContains(a, b)
			case "within":
				cl = cfg.Filter.ClassifyWithin(a, b, eps)
			default:
				cl = cfg.Filter.Classify(a, b)
			}
			switch cl {
			case approx.Hit:
				st.filterHits++
			case approx.FalseHit:
				st.falseHits++
			default:
				undecided = append(undecided, c)
			}
		}
		st.approxT = tr.end(sp)
		st.classified = int64(len(cands))
	}

	var c ops.Counters
	sp = tr.begin("exact.test", parent, req)
	for _, p := range undecided {
		a, b := r.Objects[p[0]], s.Objects[p[1]]
		st.exactTests++
		if exactDecide(q, pl.Engine, cfg, a, b, &c) {
			st.exactHits++
		}
	}
	st.exactT = tr.end(sp)
	st.results = st.filterHits + st.exactHits
	return st
}

func exactDecide(q *request, engine string, cfg multistep.Config, a, b *multistep.Object, c *ops.Counters) bool {
	switch {
	case q.Pred == "contains":
		return exact.ContainsPolygon(a.Prepared(), b.Prepared(), c)
	case q.Pred == "within" && engine == "trstar":
		return trstar.WithinDistance(a.Tree(cfg.TRCapacity), b.Tree(cfg.TRCapacity), q.Eps, c)
	case q.Pred == "within":
		return exact.WithinDistance(a.Prepared(), b.Prepared(), q.Eps, engine == "planesweep", c)
	case engine == "trstar":
		return trstar.Intersects(a.Tree(cfg.TRCapacity), b.Tree(cfg.TRCapacity), c)
	case engine == "planesweep":
		return exact.PlaneSweepIntersects(a.Prepared(), b.Prepared(), cfg.PlaneSweepRestrict, c)
	}
	return exact.QuadraticIntersects(a.Prepared(), b.Prepared(), c)
}

// lookupSteps replays one tile of an ε-range lookup (step 1 window
// search, step 3 exact distance; ε-range lookups have no step 2) or of
// a nearest lookup (step 1 best-first search, step 3 exact distances).
func lookupSteps(tr *tracer, parent, req int, rel *multistep.Relation, q *request) steps {
	var st steps
	sess := rel.NewSession()
	var items []rstar.Item
	sp := tr.begin("rstar.search", parent, req)
	if q.Kind == "nearest" {
		items = rel.Tree.NearestNeighborsAccess(sess, q.Pt, max(4*q.K, q.K+8))
	} else {
		w := lookupRect(q)
		rel.Tree.WindowQueryAccess(sess, w.Expand(q.Eps), func(it rstar.Item) { items = append(items, it) })
	}
	st.rstarT = tr.end(sp)
	st.candidates = int64(len(items))
	st.pageMissR, st.pageHits = sess.Misses(), sess.Hits()
	sp = tr.begin("exact.test", parent, req)
	for _, it := range items {
		p := rel.Objects[it.ID].Poly
		st.exactTests++
		if q.Kind == "nearest" {
			_ = p.DistToPoint(q.Pt)
			st.exactHits++
		} else if p.DistToRect(lookupRect(q)) <= q.Eps {
			st.exactHits++
		}
	}
	st.exactT = tr.end(sp)
	return st
}

// compareSteps names the step counts that differ from the server's.
func compareSteps(st steps, ws wireStats) string {
	var d []string
	chk := func(name string, got, want int64) {
		if got != want {
			d = append(d, fmt.Sprintf("%s replay %d server %d", name, got, want))
		}
	}
	chk("candidates", st.candidates, ws.CandidatePairs)
	chk("filter hits", st.filterHits, ws.FilterHits)
	chk("filter false hits", st.falseHits, ws.FilterFalseHits)
	chk("exact tests", st.exactTests, ws.ExactTested)
	chk("exact hits", st.exactHits, ws.ExactHits)
	chk("result pairs", st.results, ws.ResultPairs)
	chk("page misses R", st.pageMissR, ws.PageAccessesR)
	chk("page misses S", st.pageMissS, ws.PageAccessesS)
	return strings.Join(d, "; ")
}

// countDiff counts the false hits and misses of a complete join answer
// against the oracle.
func countDiff(got []multistep.Pair, jo *joinOracle, q *request) (falseHits, misses int) {
	want, err := jo.answer(q.Pred, q.Eps)
	if err != nil {
		return 0, 0
	}
	i, j := 0, 0
	for i < len(got) || j < len(want) {
		switch {
		case j == len(want) || i < len(got) && (got[i].A < want[j].A || got[i].A == want[j].A && got[i].B < want[j].B):
			falseHits++
			i++
		case i == len(got) || want[j].A < got[i].A || want[j].A == got[i].A && want[j].B < got[i].B:
			misses++
			j++
		default:
			i++
			j++
		}
	}
	return falseHits, misses
}
