package main

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"spatialjoin/internal/data"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/loadgen"
)

// Input make-up. The dataset is the repository's scale-factor pair at SF
// 0.1, built with fixed generation seeds: --seed varies the requests,
// never the data, so the join oracle is computed once per checkout and
// the known step-2 filter faults fail the same joins on every seed.
const (
	scaleFactor = 0.1
	tiles       = 4
	// maxEpsCells is the largest join ε of any workload, in grid cells;
	// the oracle table covers every pair within it.
	maxEpsCells = 1.0
)

// dataset is the generated relation pair with the derived geometry
// constants the workloads are expressed in.
type dataset struct {
	spec   loadgen.Spec
	R, S   []*geom.Polygon
	cell   float64 // mean object diameter: extent / √objects
	key    string  // input make-up plus a checksum of the polygons
	genSec float64
}

func generate() (*dataset, error) {
	spec, err := loadgen.For(scaleFactor)
	if err != nil {
		return nil, err
	}
	ds := &dataset{spec: spec}
	start := time.Now()
	var rels [2][]*geom.Polygon
	errs := make(chan error, 2)
	for i, side := range []string{"R", "S"} {
		mc, err := spec.MapConfig(side)
		if err != nil {
			return nil, err
		}
		go func() {
			_, err := data.StreamMap(mc, func(_ int32, p *geom.Polygon) error {
				rels[i] = append(rels[i], p.Clone())
				return nil
			})
			errs <- err
		}()
	}
	for range rels {
		if err := <-errs; err != nil {
			return nil, err
		}
	}
	ds.R, ds.S = rels[0], rels[1]
	h := fnv.New64a()
	var buf []byte
	for _, rel := range rels {
		for _, p := range rel {
			buf = data.AppendPolygon(buf[:0], p)
			h.Write(buf)
		}
	}
	ds.genSec = time.Since(start).Seconds()
	ds.cell = spec.Extent / math.Floor(math.Sqrt(float64(spec.Objects)))
	ds.key = fmt.Sprintf("sf%g-n%d-v%d-h%g-t%d-e%g-%016x",
		spec.SF, spec.Objects, spec.Verts, spec.HoleFraction, tiles, maxEpsCells, h.Sum64())
	return ds, nil
}

func (ds *dataset) relName(side string) string { return ds.spec.RelationName(side) }

// joinOracleFor loads the cached join table for the dataset, or builds
// and caches it (rebuild forces a fresh build).
func joinOracleFor(ds *dataset, dir string, rebuild bool) (*joinOracle, error) {
	path := oraclePath(dir, ds.key)
	if !rebuild {
		if o, err := loadJoinOracle(path); err == nil {
			return o, nil
		}
	}
	start := time.Now()
	// Every CPU: the build runs before anything is timed.
	o := buildJoinOracle(ds.R, ds.S, maxEpsCells*ds.cell, runtime.NumCPU())
	logf("oracle: built join table (%d pairs within %g) in %.1fs", len(o.Rows), o.MaxEps, time.Since(start).Seconds())
	if err := saveJoinOracle(path, o); err != nil {
		return nil, fmt.Errorf("oracle cache: %w", err)
	}
	return o, nil
}

// buildStores builds both relations' sharded stores with the program's
// own store builder, the two sides in parallel, and returns the wall
// time.
func buildStores(bin, dir string, noFilter bool) (float64, error) {
	start := time.Now()
	errs := make(chan error, 2)
	for _, side := range []string{"R", "S"} {
		args := []string{"-sf", strconv.FormatFloat(scaleFactor, 'g', -1, 64), "-side", side,
			"-shards", strconv.Itoa(tiles), "-store", filepath.Join(dir, side)}
		if noFilter {
			args = append(args, "-no-filter")
		}
		cmd := exec.Command(filepath.Join(bin, "datagen"), args...)
		go func() {
			out, err := cmd.CombinedOutput()
			if err != nil {
				err = fmt.Errorf("datagen %s: %v: %s", strings.Join(cmd.Args[1:], " "), err, out)
			}
			errs <- err
		}()
	}
	var first error
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return time.Since(start).Seconds(), first
}

// dirMB is the total size of the regular files under dir, in MB.
func dirMB(dir string) float64 {
	var n int64
	filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && fi.Mode().IsRegular() {
			n += fi.Size()
		}
		return nil
	})
	return float64(n) / 1e6
}

// server is one spatialjoinserve process.
type server struct {
	cmd  *exec.Cmd
	base string
	done chan error
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer starts the server over the two stores and waits for
// /readyz; it returns the time from exec to ready.
func startServer(bin, storeDir, logPath string, ds *dataset, extra []string) (*server, float64, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	args := []string{"-addr", addr,
		"-rel", ds.relName("R") + "=" + filepath.Join(storeDir, "R"),
		"-rel", ds.relName("S") + "=" + filepath.Join(storeDir, "S")}
	args = append(args, extra...)
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	defer logFile.Close()
	cmd := exec.Command(filepath.Join(bin, "spatialjoinserve"), args...)
	cmd.Stdout, cmd.Stderr = logFile, logFile
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	s := &server{cmd: cmd, base: "http://" + addr, done: make(chan error, 1)}
	go func() { s.done <- cmd.Wait() }()
	client := &http.Client{Timeout: time.Second}
	deadline := start.Add(90 * time.Second)
	for {
		select {
		case err := <-s.done:
			s.done <- err
			return nil, 0, fmt.Errorf("server exited before ready: %v (log %s)", err, logPath)
		default:
		}
		if resp, err := client.Get(s.base + "/readyz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(start).Seconds(), nil
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, 0, errors.New("server not ready within 90s")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// rssMB reads the server's resident set (VmRSS) in MB.
func (s *server) rssMB() float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmRSS:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb * 1024 / 1e6
		}
	}
	return 0
}

// cpuSeconds reads the server's user plus system CPU time (/proc/<pid>/stat
// fields 14 and 15, in clock ticks of 1/100 s).
func (s *server) cpuSeconds() float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	st := string(b)
	f := strings.Fields(st[strings.LastIndexByte(st, ')')+1:])
	if len(f) < 13 {
		return 0
	}
	u, _ := strconv.ParseFloat(f[11], 64)
	k, _ := strconv.ParseFloat(f[12], 64)
	return (u + k) / 100
}

// sampleRSS samples the server's resident set every interval until the
// returned function is called, which stops the sampler and returns the
// samples. The median of the samples is steadier than the peak, which
// depends on when the garbage collector happens to run.
func (s *server) sampleRSS(every time.Duration) func() []float64 {
	stop := make(chan struct{})
	done := make(chan []float64)
	go func() {
		var v []float64
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-stop:
				done <- append(v, s.rssMB())
				return
			case <-t.C:
				v = append(v, s.rssMB())
			}
		}
	}()
	return func() []float64 {
		close(stop)
		return <-done
	}
}

// stop sends SIGTERM, waits for the drain, and kills the process if it
// has not exited after 20 s.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	select {
	case <-s.done:
	case <-ctx.Done():
		_ = s.cmd.Process.Kill()
		<-s.done
	}
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// quantile is the nearest-rank q-quantile of v (q in (0, 1]).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	i := int(math.Ceil(q*float64(len(c)))) - 1
	if i < 0 {
		i = 0
	}
	return c[i]
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// stealSeconds reads the CPU time the hypervisor gave to other guests
// (the steal column of /proc/stat), summed over CPUs; the run logs how
// much of it fell in the measured window.
func stealSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	f := strings.Fields(strings.SplitN(string(b), "\n", 2)[0])
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, _ := strconv.ParseFloat(f[8], 64)
	return v / 100 // USER_HZ
}
