package main

import (
	"fmt"
	"math"
	"math/rand"
	"net/url"
	"slices"
	"strconv"

	"spatialjoin/internal/geom"
)

// request is one benchmark operation. Its path is what the client sends;
// the other fields are what the oracle and the traced replay need.
type request struct {
	Kind string // window, point, nearest or join
	Side string // R or S, for lookups
	Win  geom.Rect
	Pt   geom.Point
	Eps  float64
	K    int
	Pred string // intersects, contains or within, for joins
	path string
}

// class names the latency group a request reports under.
func (q *request) class() string {
	if q.Kind == "join" {
		return "join_" + q.Pred
	}
	return q.Kind
}

func num(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func (q *request) build(ds *dataset) *request {
	v := url.Values{}
	switch q.Kind {
	case "window":
		v.Set("rel", ds.relName(q.Side))
		v.Set("minx", num(q.Win.MinX))
		v.Set("miny", num(q.Win.MinY))
		v.Set("maxx", num(q.Win.MaxX))
		v.Set("maxy", num(q.Win.MaxY))
	case "point", "nearest":
		v.Set("rel", ds.relName(q.Side))
		v.Set("x", num(q.Pt.X))
		v.Set("y", num(q.Pt.Y))
		if q.Kind == "nearest" {
			v.Set("k", strconv.Itoa(q.K))
		}
	case "join":
		v.Set("r", ds.relName("R"))
		v.Set("s", ds.relName("S"))
		v.Set("predicate", q.Pred)
	}
	if q.Eps > 0 {
		v.Set("epsilon", num(q.Eps))
	}
	q.path = "/" + q.Kind + "?" + v.Encode()
	return q
}

// lookup builds the i-th lookup of a stratified sequence: the kind
// (window, point, nearest), the relation, the window size, the ε and k
// cycle through fixed values with i, and only the position comes from
// rng. Every stretch of the sequence then has the same make-up whatever
// the seed, which keeps the seed-to-seed spread of the latency figures
// small. Windows are 1 to 6 cells a side and nearest-k has k in
// {1, 5, 10}. Windows and points carry an ε of 0.1 to 1 cell: lookups
// without ε run the step-2 window filter, which answers some points
// inside a polygon's hole wrongly, on positions that vary with the seed
// (see README, "Known faults").
func lookup(rng *rand.Rand, ds *dataset, i int) *request {
	ext, cell := ds.spec.Extent, ds.cell
	q := &request{Side: []string{"R", "S"}[(i/3)%2]}
	x, y := rng.Float64()*ext, rng.Float64()*ext
	switch i % 3 {
	case 0:
		q.Kind = "window"
		hw, hh := (0.5+2.5*golden(i))*cell, (0.5+2.5*golden(i+7))*cell
		q.Win = geom.Rect{MinX: x - hw, MinY: y - hh, MaxX: x + hw, MaxY: y + hh}
	case 1:
		q.Kind = "point"
		q.Pt = geom.Point{X: x, Y: y}
	default:
		q.Kind = "nearest"
		q.Pt = geom.Point{X: x, Y: y}
		q.K = []int{1, 5, 10}[(i/6)%3]
	}
	if q.Kind != "nearest" {
		q.Eps = (0.1 + 0.9*golden(i+13)) * cell
	}
	return q.build(ds)
}

// workload is one named traffic mix. Every run issues whole rounds:
// round(i) returns the i-th round's requests, and the failing share of a
// round is the same in every round.
type workload struct {
	name    string
	clients int
	// ratePerSec > 0 makes the loop open: request n is due n/rate seconds
	// after the start, whatever the server's progress.
	ratePerSec float64
	cacheBytes int64 // the server's -cache-bytes: result-cache budget, ≤ 0 off
	round      func(i int) []*request
	warmup     []*request
	// replayRounds bounds the traced replay to the first rounds.
	replayRounds int
}

const (
	zipfPool   = 2000 // distinct lookups in the lookup-zipf pool, all cached by the warm-up
	zipfSkew   = 1.1  // Zipf exponent s: P(rank k) ∝ (zipfOffset + k)^-s
	zipfOffset = 20   // flattens the head, so no single lookup dominates a run
	zipfRound  = 400  // requests per lookup-zipf round
	zipfFresh  = 40   // of which never-seen lookups, which miss the cache

	// mixedRate is the mixed-open arrival rate, about a quarter of the
	// capacity of the same mix on 2 CPUs. With more joins, or at half
	// capacity, a join runs about half the time, the lookups' median falls
	// between the lookups slowed by a join and those that are not, and it
	// moved by a factor of 2 to 4 from seed to seed.
	mixedRate        = 60.0
	mixedRound       = 100 // requests per mixed-open round, joins included
	mixedJoins       = 1   // within-joins per mixed-open round
	defaultCacheSize = 64 << 20
)

// joinOverlayEps are the within-join distances of join-overlay, in cells.
var joinOverlayEps = []float64{0.05, 0.1, 0.25, 0.5, 1}

// golden is the golden-ratio sequence: evenly spread values in [0, 1),
// distinct for every n.
func golden(n int) float64 { return math.Mod(float64(n+1)*0.6180339887498949, 1) }

// mixedEps is the ε, in cells, of the n-th mixed-open join: distinct for
// every n and independent of the seed, so the set of joins a run issues
// never depends on it.
func mixedEps(n int) float64 { return 0.05 + 0.2*golden(n) }

var workloadNames = []string{"lookup-zipf", "join-overlay", "mixed-open"}

func newWorkload(name string, seed int64, ds *dataset) (*workload, error) {
	switch name {
	case "lookup-zipf":
		// A round draws zipfRound-zipfFresh requests from the pool and adds
		// zipfFresh lookups never sent before, at their place in the
		// round's stratified sequence. The warm-up sends the whole pool,
		// so the share of requests that miss the cache is the same in
		// every round instead of falling as the cache warms.
		poolRng := rand.New(rand.NewSource(seed))
		pool := make([]*request, zipfPool)
		for i := range pool {
			pool[i] = lookup(poolRng, ds, i)
		}
		return &workload{
			name: name, clients: 2, cacheBytes: defaultCacheSize,
			round: func(i int) []*request {
				rng := rand.New(rand.NewSource(seed*1_000_003 + int64(i) + 1))
				z := rand.NewZipf(rng, zipfSkew, zipfOffset, zipfPool-1)
				out := make([]*request, zipfRound)
				for j := range out {
					if j%(zipfRound/zipfFresh) == 0 {
						out[j] = lookup(rng, ds, zipfPool+i*zipfRound+j)
					} else {
						out[j] = pool[z.Uint64()]
					}
				}
				return out
			},
			warmup:       pool,
			replayRounds: 2,
		}, nil
	case "join-overlay":
		base := []*request{
			(&request{Kind: "join", Pred: "intersects"}).build(ds),
			(&request{Kind: "join", Pred: "contains"}).build(ds),
		}
		for _, e := range joinOverlayEps {
			base = append(base, (&request{Kind: "join", Pred: "within", Eps: e * ds.cell}).build(ds))
		}
		return &workload{
			name: name, clients: 1, cacheBytes: -1,
			round: func(i int) []*request {
				rng := rand.New(rand.NewSource(seed*1_000_003 + int64(i)))
				out := append([]*request(nil), base...)
				rng.Shuffle(len(out), func(a, b int) { out[a], out[b] = out[b], out[a] })
				return out
			},
			warmup:       base,
			replayRounds: 1,
		}, nil
	case "mixed-open":
		round := func(i int, rng *rand.Rand, joinBase int) []*request {
			out := make([]*request, 0, mixedRound)
			for len(out) < mixedRound-mixedJoins {
				out = append(out, lookup(rng, ds, len(out)))
			}
			for j := 0; j < mixedJoins; j++ {
				q := (&request{Kind: "join", Pred: "within", Eps: mixedEps(joinBase+i*mixedJoins+j) * ds.cell}).build(ds)
				out = slices.Insert(out, (j+1)*len(out)/(mixedJoins+1), q)
			}
			return out
		}
		return &workload{
			name: name, clients: 2, cacheBytes: defaultCacheSize, ratePerSec: mixedRate,
			round: func(i int) []*request {
				return round(i, rand.New(rand.NewSource(seed*1_000_003+int64(i))), 0)
			},
			// The warm-up's joins take ε from far beyond the measured
			// rounds' range, so no measured join is served from the cache.
			warmup:       round(0, rand.New(rand.NewSource(seed*1_000_003-1)), 1<<30),
			replayRounds: 2,
		}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}
