package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// The wire shapes the benchmark reads: only the fields it checks.

type wireStats struct {
	CandidatePairs  int64
	PageAccessesR   int64
	PageAccessesS   int64
	FilterHits      int64
	FilterFalseHits int64
	ExactTested     int64
	ExactHits       int64
	ResultPairs     int64
}

type wirePlan struct {
	Engine string `json:"engine"`
	Filter bool   `json:"filter"`
}

type wireResponse struct {
	Cached    bool      `json:"cached"`
	IDs       []int32   `json:"ids"`
	Pairs     []pair    `json:"pairs"`
	Truncated bool      `json:"truncated"`
	Plan      wirePlan  `json:"plan"`
	Stats     wireStats `json:"stats"`
	Neighbors []struct {
		ID   int32
		Dist float64
	} `json:"neighbors"`
}

// record is one answered (or failed) request of a run.
type record struct {
	seq     int // position in the run's request sequence
	round   int
	start   time.Time // send time, or the due time of a request that waited for a connection
	end     time.Time
	req     *request
	err     error
	latency time.Duration // from start to the answer
	late    time.Duration // open loop: how late the timer woke the sender
	resp    *wireResponse
}

// client drives one server over loopback HTTP with a fixed set of
// connections.
type client struct {
	http *http.Client
	base string
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &client{http: &http.Client{Transport: tr, Timeout: 120 * time.Second}, base: base}
}

func (c *client) close() { c.http.CloseIdleConnections() }

func (c *client) do(ctx context.Context, q *request) (rec record) {
	rec.req = q
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+q.path, nil)
	if err != nil {
		rec.err = err
		return rec
	}
	resp, err := c.http.Do(hreq)
	if err != nil {
		rec.err = err
		return rec
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		rec.err = err
		return rec
	}
	if resp.StatusCode != http.StatusOK {
		rec.err = fmt.Errorf("HTTP %d: %.200s", resp.StatusCode, body)
		return rec
	}
	var wr wireResponse
	if err := json.Unmarshal(body, &wr); err != nil {
		rec.err = fmt.Errorf("decode: %v", err)
		return rec
	}
	rec.resp = &wr
	return rec
}

// runClosed issues whole rounds from the given number of clients, each
// sending its next request once the previous one is answered, until a
// round ends after the duration has passed. It returns the records in
// sequence order and the measured wall time.
func runClosed(c *client, clients int, round func(int) []*request, d time.Duration) ([]record, time.Duration) {
	var (
		mu      sync.Mutex
		queue   []*request
		next    int // next round to enqueue
		seq     int
		records []record
	)
	start := time.Now()
	take := func() (*request, int, int) {
		mu.Lock()
		defer mu.Unlock()
		if len(queue) == 0 {
			if next > 0 && time.Since(start) >= d {
				return nil, 0, 0
			}
			queue = round(next)
			next++
		}
		q := queue[0]
		queue = queue[1:]
		seq++
		return q, seq - 1, next - 1
	}
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				q, s, r := take()
				if q == nil {
					return
				}
				t0 := time.Now()
				rec := c.do(context.Background(), q)
				rec.end = time.Now()
				rec.start, rec.latency = t0, rec.end.Sub(t0)
				rec.seq, rec.round = s, r
				mu.Lock()
				records = append(records, rec)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	slices.SortFunc(records, func(a, b record) int { return a.seq - b.seq })
	return records, wall
}

// runOpen sends rounds on a fixed schedule — request n is due n/rate
// seconds after the start — from the given number of connections. A
// request that finds every connection busy at its due time waits, and
// its latency runs from the due time, so a stall also counts against the
// requests queued behind it. A request whose connection was idle is
// timed from its send: the timer's own lateness is the generator's, not
// the server's, and is reported apart (late).
func runOpen(c *client, clients int, round func(int) []*request, rounds int, rate float64) ([]record, time.Duration) {
	var all []*request
	var roundOf []int
	for i := 0; i < rounds; i++ {
		for _, q := range round(i) {
			all = append(all, q)
			roundOf = append(roundOf, i)
		}
	}
	records := make([]record, len(all))
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				n := int(next.Add(1) - 1)
				if n >= len(all) {
					return
				}
				due := start.Add(time.Duration(float64(n) / rate * float64(time.Second)))
				from := due
				var late time.Duration
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
					from = time.Now()
					late = from.Sub(due)
				}
				rec := c.do(context.Background(), all[n])
				rec.end = time.Now()
				rec.start, rec.latency, rec.late = from, rec.end.Sub(from), late
				rec.seq, rec.round = n, roundOf[n]
				records[n] = rec
			}
		}()
	}
	wg.Wait()
	return records, time.Since(start)
}

// serverStats is the slice of /stats the benchmark reads.
type serverStats struct {
	Cache struct {
		Hits      int64 `json:"hits"`
		Misses    int64 `json:"misses"`
		Evictions int64 `json:"evictions"`
	} `json:"cache"`
	Coalesced int64 `json:"coalesced"`
	Batch     struct {
		Batched int64 `json:"batchedRequests"`
	} `json:"batch"`
}

func (c *client) stats() (serverStats, error) {
	var st serverStats
	resp, err := c.http.Get(c.base + "/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("/stats: HTTP %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}
