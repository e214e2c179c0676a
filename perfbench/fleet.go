package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"lockin/internal/bench/opts"
	"lockin/internal/experiments"
	"lockin/internal/fleet"
	"lockin/internal/results"
	"lockin/internal/scenario"
)

// fleet-skewed: a fleet coordinator (fleet.New) plus 2 fleet.Work
// goroutines over loopback on testdata/skewed-scenario.json, whose cell
// cost grows with the thread axis. Each chunk runs on 1 sweep worker.
// One round is one whole fleet run, from fleet.New to the merged run.
var fleetSkewed = workloadDef{
	name:  "fleet-skewed",
	why:   "coordinator + 2 workers on a skewed grid: leases, stealing and merge-on-arrival (results.MergeRanges)",
	setup: setupFleet,
}

const (
	fleetSpec    = "testdata/skewed-scenario.json"
	fleetScale   = 0.03
	fleetWorkers = 2
)

type fleetRun struct {
	spec   []byte
	comp   *scenario.Compiled
	cycles float64 // simulated cycles of one whole run
	runs   []*results.Run
}

func setupFleet(e *env, r *rec) (runner, error) {
	spec, err := os.ReadFile(filepath.Join(e.root, fleetSpec))
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	comp, err := scenario.ParseAndCompile(spec)
	if err != nil {
		return nil, err
	}
	r.set("scenario.compile_ms", ms(time.Since(t0)))
	f := &fleetRun{spec: spec, comp: comp}
	// Plan the run once (resolve, survey, chunk schedule) as a user's
	// coordinator start would.
	t0 = time.Now()
	if _, err := fleet.New(fleet.Config{Job: f.job(e.seed), Expect: fleetWorkers}); err != nil {
		return nil, err
	}
	r.set("fleet.survey_ms", ms(time.Since(t0)))
	cells := 0
	x := comp.Experiment()
	x.Run(experiments.Options{Seed: e.seed, Scale: fleetScale, Survey: func(n int, _ func(int) float64) { cells += n }})
	warm, dur := comp.Spec.WarmupCycles, comp.Spec.DurationCycles
	f.cycles = float64(cells) * (float64(warm) + float64(dur)) * fleetScale
	// Warm the simulator on the grid's costliest (last) cell.
	x.Run(experiments.Options{Seed: e.seed, Scale: fleetScale, Workers: 1, OnlyCell: cells})
	return f, nil
}

func (f *fleetRun) job(seed int64) fleet.JobSpec {
	return fleet.JobSpec{Scenario: f.spec, Seed: seed, Scale: fleetScale, Workers: 1}
}

// chunkClock times each worker's chunks from outside the worker: a
// chunk runs from the lease answer to the result post that follows it.
type chunkClock struct {
	next      http.RoundTripper
	e         *env
	r         *rec
	parent    ref
	mu        sync.Mutex
	leased    time.Time
	lastPost  time.Time
	openChunk func()
}

func (c *chunkClock) RoundTrip(req *http.Request) (*http.Response, error) {
	result := strings.HasSuffix(req.URL.Path, "/result")
	if result {
		c.mu.Lock()
		if !c.leased.IsZero() {
			c.r.op(time.Since(c.leased), nil)
		}
		if c.openChunk != nil {
			c.openChunk()
			c.openChunk = nil
		}
		c.mu.Unlock()
	}
	_, end := c.e.tr.start("http POST "+req.URL.Path, c.parent, 0)
	resp, err := c.next.RoundTrip(req)
	end()
	c.mu.Lock()
	defer c.mu.Unlock()
	if result {
		c.lastPost = time.Now()
		c.leased = time.Time{}
	} else if err == nil {
		c.leased = time.Now()
		_, c.openChunk = c.e.tr.start("fleet.chunk", c.parent, 0)
	}
	return resp, err
}

func (f *fleetRun) round(e *env, r *rec, root ref) error {
	t0 := time.Now()
	_, end := e.tr.start("fleet.New", root, 0)
	co, err := fleet.New(fleet.Config{Job: f.job(e.seed), Expect: fleetWorkers})
	end()
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: co.Handler()}
	go hs.Serve(ln)
	defer hs.Close()
	addr := "http://" + ln.Addr().String()

	// The run ends when the merged result exists; a worker still
	// polling for work at that point is stopped, not waited for.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	clocks := make([]*chunkClock, fleetWorkers)
	errs := make([]error, fleetWorkers)
	var wg sync.WaitGroup
	for i := range clocks {
		tr := &http.Transport{MaxConnsPerHost: 1}
		defer tr.CloseIdleConnections()
		wref, wend := e.tr.start(fmt.Sprintf("fleet.Work w%d", i), root, 0)
		clocks[i] = &chunkClock{next: tr, e: e, r: r, parent: wref}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer wend()
			errs[i] = fleet.Work(ctx, fleet.WorkerConfig{
				Addr: addr, Name: fmt.Sprintf("w%d", i),
				Client: &http.Client{Timeout: time.Minute, Transport: clocks[i]},
			})
		}(i)
	}
	select {
	case <-co.Done():
	case <-time.After(2 * time.Minute):
	}
	wall := time.Since(t0)
	cancel()
	wg.Wait()
	for _, err := range errs {
		if err != nil && !errors.Is(err, context.Canceled) {
			return err
		}
	}

	m, err := fetchScrape(&http.Client{Timeout: 10 * time.Second}, addr+"/metrics")
	if err != nil {
		return err
	}
	r.add("fleet.leases", m["fleet_leases_issued_total"])
	r.add("fleet.steals", m["fleet_leases_stolen_total"])
	r.add("fleet.chunks_merged", m["fleet_chunks_merged_total"])
	r.add("fleet.chunks_discarded", m["fleet_chunks_discarded_total"])
	st := co.Status()
	var busy time.Duration
	for _, w := range st.Workers {
		busy += w.Busy
	}
	r.add("fleet.worker_busy_share", busy.Seconds()/(wall.Seconds()*fleetWorkers))
	r.add("sweep.utilisation", busy.Seconds()/(wall.Seconds()*fleetWorkers))
	first, last := clocks[0].lastPost, clocks[0].lastPost
	for _, c := range clocks[1:] {
		if c.lastPost.Before(first) {
			first = c.lastPost
		}
		if c.lastPost.After(last) {
			last = c.lastPost
		}
	}
	r.add("fleet.tail_idle_s", last.Sub(first).Seconds())
	r.add("sim.mcycles_per_s", f.cycles/1e6/wall.Seconds())
	// Cells run inside the workers, so only each worker's mean cell
	// time is visible from outside.
	var cells []float64
	for _, w := range st.Workers {
		if w.Cells > 0 {
			cells = append(cells, ms(w.Busy)/float64(w.Cells))
		}
	}
	r.set("sweep.cell_p50_ms", medianOf(cells))
	r.set("sweep.cell_max_ms", maxOf(cells))

	run := co.Result()
	if run == nil {
		return errors.New("fleet-skewed: coordinator done without a merged run")
	}
	_, err = timedDigest(e, r, root, run)
	f.runs = append(f.runs, run)
	return err
}

// serial runs the spec directly on one sweep worker: the path every
// fleet run must reproduce.
func (f *fleetRun) serial(seed int64) (string, error) {
	x := f.comp.Experiment()
	o := opts.Defaults()
	o.Seed, o.Scale, o.Workers = seed, fleetScale, 1
	if err := o.NormalizeAndValidate(); err != nil {
		return "", err
	}
	return digest(&results.Run{Meta: o.RunMeta(x), Tables: x.Run(o.ExperimentOptions())})
}

func (f *fleetRun) check(e *env, r *rec) error {
	if len(f.runs) == 0 {
		return errors.New("fleet-skewed: no round completed")
	}
	want, err := f.serial(e.seed)
	if err != nil {
		return err
	}
	for i, run := range f.runs {
		got, err := digest(run)
		if err != nil {
			return err
		}
		if got != want {
			r.fail(fmt.Errorf("fleet-skewed: round %d merged run %s differs from the serial run %s", i, got, want))
		}
	}
	pin, err := f.serial(pinSeed)
	if err != nil {
		return err
	}
	checkPinned(r, "fleet-skewed", pin)
	return nil
}

func (f *fleetRun) close() {}
