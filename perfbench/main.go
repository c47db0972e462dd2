// Command perfbench is the repository's end-to-end benchmark: it builds
// the scale-factor 0.1 relation pair with the program's own store
// builder, starts the real spatialjoinserve on the stores, drives it over
// loopback HTTP with one of three traffic mixes, and checks every
// response against an oracle computed from the generated polygons alone.
// With --trace 1 it then replays the run's first rounds in-process,
// timing the calls into each layer's public functions, and reports the
// per-layer figures instead of the end-to-end ones.
//
// Run it from the repository root through the wrapper, which builds the
// binaries from source first:
//
//	bash perfbench/run.sh --workload lookup-zipf --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --rebuild-oracle
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and the metrics by name with their units. Progress,
// every metric in readable form, and failed operations go to standard
// error. See perfbench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	root := flag.String("root", ".", "repository root (holds .bench_build)")
	name := flag.String("workload", "", "workload: lookup-zipf, join-overlay or mixed-open")
	seed := flag.Int64("seed", 1, "request seed")
	seconds := flag.Int("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1: report per-layer metrics from a traced in-process replay")
	noFilter := flag.Bool("no-filter", false, "verification run: build the stores and start the server without the step-2 filter")
	rebuild := flag.Bool("rebuild-oracle", false, "rebuild the cached join oracle from scratch and exit")
	flag.Parse()

	if !*rebuild {
		if !slices.Contains(workloadNames, *name) {
			fatal(fmt.Errorf("unknown workload %q (want one of %v)", *name, workloadNames))
		}
		if *seconds < 1 || (*trace != 0 && *trace != 1) {
			fatal(fmt.Errorf("--seconds must be positive and --trace 0 or 1"))
		}
	}
	build := filepath.Join(*root, ".bench_build")
	bin := filepath.Join(build, "bin")
	ds, err := generate()
	if err != nil {
		fatal(err)
	}
	jo, err := joinOracleFor(ds, filepath.Join(build, "oracle"), *rebuild)
	if err != nil {
		fatal(err)
	}
	if *rebuild {
		logf("oracle cache rebuilt for %s", ds.key)
		return
	}
	wl, err := newWorkload(*name, *seed, ds)
	if err != nil {
		fatal(err)
	}
	res, err := run(wl, ds, jo, bin, build, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *noFilter)
	if err != nil {
		fatal(err)
	}
	out, _ := json.Marshal(res)
	fmt.Println(string(out))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// setupStarts is how many times a run starts the server to take the
// median start time; the store build runs once (≈ 19 s on 2 CPUs).
const setupStarts = 3

func run(wl *workload, ds *dataset, jo *joinOracle, bin, build string, seed int64, d time.Duration, traced, noFilter bool) (*result, error) {
	runDir := filepath.Join(build, "run", fmt.Sprintf("%s-%d-%d", wl.name, seed, os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)
	m := map[string]metric{}
	layer := map[string]metric{}

	// Set-up: the store build, then the server start to /readyz.
	buildSec, err := buildStores(bin, runDir, noFilter)
	if err != nil {
		return nil, err
	}
	args := []string{"-cache-bytes", strconv.FormatInt(wl.cacheBytes, 10)}
	if noFilter {
		args = append(args, "-no-filter")
	}
	var srv *server
	var starts []float64
	for i := 0; i < setupStarts; i++ {
		s, sec, err := startServer(bin, runDir, filepath.Join(runDir, "server.log"), ds, args)
		if err != nil {
			return nil, err
		}
		starts = append(starts, sec)
		if i < setupStarts-1 {
			s.stop()
		} else {
			srv = s
		}
	}
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	openSec := median(starts)
	m["setup_s"] = metric{buildSec + openSec, "s"}
	layer["data.generate_s"] = metric{ds.genSec, "s"}
	layer["shard.build_s"] = metric{buildSec, "s"}
	layer["serve.open_s"] = metric{openSec, "s"}
	layer["shard.store_mb"] = metric{dirMB(runDir), "MB"}

	c := newClient(srv.base, wl.clients)
	defer c.close()
	warm, _ := runClosed(c, wl.clients, func(int) []*request { return wl.warmup }, 0)
	for _, rec := range warm {
		if rec.err != nil {
			return nil, fmt.Errorf("warm-up %s: %v", rec.req.path, rec.err)
		}
	}
	before, err := c.stats()
	if err != nil {
		return nil, err
	}
	rss := srv.sampleRSS(50 * time.Millisecond)
	steal := stealSeconds()
	cpu := srv.cpuSeconds()
	var recs []record
	var wall time.Duration
	if wl.ratePerSec > 0 {
		rounds := max(1, int(d.Seconds()*wl.ratePerSec)/len(wl.round(0)))
		recs, wall = runOpen(c, wl.clients, wl.round, rounds, wl.ratePerSec)
	} else {
		recs, wall = runClosed(c, wl.clients, wl.round, d)
	}
	steal = stealSeconds() - steal
	cpu = srv.cpuSeconds() - cpu
	after, err := c.stats()
	if err != nil {
		return nil, err
	}
	m["server_rss_mb"] = metric{median(rss()), "MB"}
	c.close()
	srv.stop()
	srv = nil

	// Checks, outside the timed window.
	chk := newChecker(ds, jo)
	res := &result{Correct: true}
	lat := map[string][]float64{}
	var all, lateness []float64
	var pairs int64
	cached := 0
	var joinSec float64
	for i := range recs {
		r := &recs[i]
		res.Attempted++
		if !chk.check(r) {
			res.Failed++
		}
		if r.err != nil {
			continue
		}
		if r.resp.Cached {
			cached++
		}
		ms := float64(r.latency) / 1e6
		all = append(all, ms)
		lat[r.req.class()] = append(lat[r.req.class()], ms)
		lateness = append(lateness, float64(r.late)/1e6)
		if r.req.Kind == "join" {
			pairs += r.resp.Stats.ResultPairs
			joinSec += r.latency.Seconds()
			lat["join"] = append(lat["join"], ms)
		} else {
			lat["lookup"] = append(lat["lookup"], ms)
		}
	}
	logf("%s seed %d: %d requests in %.2fs (%.2f CPU-s stolen by the host); %s",
		wl.name, seed, res.Attempted, wall.Seconds(), steal, chk.summary())
	// The gated figures are medians over the run's rounds of each round's
	// figure, so a burst of load from outside the benchmark moves a few
	// rounds, not the result.
	perSec, p50, avg := roundFigures(recs)
	m["answered_per_s"] = metric{perSec, "1/s"}
	m["p50_ms"] = metric{p50, "ms"}

	// The per-class figures are printed for reading; the gated metrics
	// above apply to every workload alike.
	report := map[string]metric{"mean_ms": {avg, "ms"}, "server_cpu_ms_per_req": {cpu * 1e3 / float64(max(len(all), 1)), "ms"}}
	if n := len(lat["lookup"]); n > 0 {
		report["lookup_qps"] = metric{float64(n) / wall.Seconds(), "1/s"}
		report["lookup_p50_ms"] = metric{median(lat["lookup"]), "ms"}
		if n >= 1000 {
			report["lookup_p99_ms"] = metric{quantile(lat["lookup"], 0.99), "ms"}
		}
	}
	for _, p := range []string{"intersects", "contains", "within"} {
		if v := lat["join_"+p]; len(v) > 0 {
			report["join_"+p+"_p50_ms"] = metric{median(v), "ms"}
		}
	}
	if len(lat["join"]) > 0 {
		report["join_p50_ms"] = metric{median(lat["join"]), "ms"}
		report["join_pairs_per_s"] = metric{float64(pairs) / joinSec, "pairs/s"}
	}
	for _, k := range []string{"window", "point", "nearest"} {
		if v := lat[k]; len(v) > 0 {
			report[k+"_p50_ms"] = metric{median(v), "ms"}
		}
	}
	printMetrics("end-to-end", m)
	printMetrics("per-class", report)

	hits, misses := after.Cache.Hits-before.Cache.Hits, after.Cache.Misses-before.Cache.Misses
	ratio := 0.0
	if hits+misses > 0 {
		ratio = float64(hits) / float64(hits+misses)
	}
	layer["mqe.hit_ratio"] = metric{ratio, "ratio"}
	layer["mqe.cached_share"] = metric{float64(cached) / float64(max(len(all), 1)), "ratio"}
	layer["mqe.evictions"] = metric{float64(after.Cache.Evictions - before.Cache.Evictions), "count"}
	layer["mqe.coalesced"] = metric{float64(after.Coalesced - before.Coalesced), "count"}
	layer["mqe.batched"] = metric{float64(after.Batch.Batched - before.Batch.Batched), "count"}
	layer["loadgen.lateness_ms"] = metric{median(lateness), "ms"}

	if !traced {
		res.Metrics = m
		return res, nil
	}
	ok, err := replay(wl, ds, jo, runDir, recs, layer, noFilter)
	if err != nil {
		return nil, err
	}
	res.Correct = ok
	printMetrics("per-layer", layer)
	res.Metrics = layer
	return res, nil
}

// roundFigures returns the medians over rounds of each round's answered
// requests per second (answered requests over the span from the round's
// first start to its last answer), median latency and mean latency.
func roundFigures(recs []record) (perSec, p50, avg float64) {
	type agg struct {
		lat        []float64
		first, end time.Time
	}
	var rounds []*agg
	for i := range recs {
		r := &recs[i]
		for len(rounds) <= r.round {
			rounds = append(rounds, &agg{})
		}
		a := rounds[r.round]
		if a.first.IsZero() || r.start.Before(a.first) {
			a.first = r.start
		}
		if r.end.After(a.end) {
			a.end = r.end
		}
		if r.err == nil {
			a.lat = append(a.lat, float64(r.latency)/1e6)
		}
	}
	var rate, med, mn []float64
	for _, a := range rounds {
		if len(a.lat) == 0 {
			continue
		}
		rate = append(rate, float64(len(a.lat))/a.end.Sub(a.first).Seconds())
		med = append(med, median(a.lat))
		mn = append(mn, mean(a.lat))
	}
	logf("per round: answered/s %.4g, median ms %.4g, mean ms %.4g", rate, med, mn)
	return median(rate), median(med), median(mn)
}

func printMetrics(title string, m map[string]metric) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	fmt.Fprintf(&b, "%s metrics (GOMAXPROCS %d):\n", title, runtime.GOMAXPROCS(0))
	for _, k := range keys {
		fmt.Fprintf(&b, "  %-28s %14.4f %s\n", k, m[k].Value, m[k].Unit)
	}
	fmt.Fprint(os.Stderr, b.String())
}
