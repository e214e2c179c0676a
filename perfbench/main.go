// Command perfbench is the repository's benchmark. It runs one named
// workload in-process against the lockin packages for a fixed number
// of seconds, checks the outputs against the serial path and against
// pinned digests, and prints every metric by name with its unit. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run measures half its time untraced and half under a CPU profile and
// spans, and reports the per-layer metrics. See README.md for the
// workloads and for which layer metric should move which end-to-end
// metric.
//
// Run it through run.sh, which builds it from source:
//
//	bash perfbench/run.sh --workload micro-contended --seed 1 --seconds 25 --trace 0
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"lockin/internal/futex"
	"lockin/internal/sim"
	"lockin/internal/sweep"
)

// heldOutSeed is never used while tuning the benchmark or a change: a
// claimed gain must also hold when the benchmark runs at this seed.
const heldOutSeed = 7919

// A run sets its workload up at least setupMin times and, while the
// set-ups have taken less than setupBudget in all, again, up to setupMax
// times. setup_s is the median, so a one-off stall does not read as a
// set-up regression, and a cheap set-up is sampled often enough that
// its median holds still.
const (
	setupMin    = 3
	setupMax    = 30
	setupBudget = time.Second
)

// workloadDef is one named input set. setup builds a fresh instance (its
// inputs derived from env.seed); the run keeps the last one it builds.
type workloadDef struct {
	name, why string
	setup     func(e *env, r *rec) (runner, error)
}

// runner is a set-up workload instance.
type runner interface {
	// round performs the workload's fixed unit of work once.
	round(e *env, r *rec, root ref) error
	// check runs after the timed window: it verifies the outputs the
	// rounds produced against the serial path and the pinned digest,
	// counting every mismatch as a failed operation, and records the
	// layer metrics that need a final scrape.
	check(e *env, r *rec) error
	// close releases everything setup acquired.
	close()
}

var workloads = []workloadDef{microContended, systemsMix, serveMix, fleetSkewed}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// env is what every workload reads: the checkout it runs in, its
// scratch directory, the seed and (in the traced half) the tracer.
type env struct {
	root string
	work string
	seed int64
	tr   *tracer
}

// mixSeed derives a distinct positive seed from the workload seed and a
// stream index (the splitmix64 finaliser), for inputs that need seeds
// of their own: a round's cells, a request's run.
func mixSeed(seed int64, stream int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(stream)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

// rec accumulates one run's measurements. Workloads call it from
// several goroutines.
type rec struct {
	mu        sync.Mutex
	ops       []float64 // per-operation latency, ms
	attempted int
	failed    int
	counts    map[string]float64 // per-layer totals, reported per round
	values    map[string]float64 // per-layer values reported as set
	failures  []string
	runBytes  []float64 // encoded size of every run the results layer handled
}

func newRec() *rec {
	return &rec{counts: map[string]float64{}, values: map[string]float64{}}
}

// op records one attempted operation, its latency and whether it
// failed (with the reason, reported on standard error).
func (r *rec) op(d time.Duration, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	r.ops = append(r.ops, ms(d))
	if err != nil {
		r.failLocked(err)
	}
}

// fail counts an operation that failed a check after the fact (the
// operation itself was already recorded by op).
func (r *rec) fail(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failLocked(err)
}

func (r *rec) failLocked(err error) {
	r.failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, err.Error())
	}
}

// add accumulates a per-round count.
func (r *rec) add(name string, v float64) {
	r.mu.Lock()
	r.counts[name] += v
	r.mu.Unlock()
}

// set records a per-layer value directly.
func (r *rec) set(name string, v float64) {
	r.mu.Lock()
	r.values[name] = v
	r.mu.Unlock()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// counters snapshots the process-wide counters the layers export.
type counters struct {
	events   uint64
	timeouts uint64
	busy     float64
	alloc    uint64
}

func readCounters() counters {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return counters{
		events:   sim.GlobalStats().EventRecycles,
		timeouts: futex.GlobalTimeouts(),
		busy:     sweep.TotalBusySeconds(),
		alloc:    m.TotalAlloc,
	}
}

// phase is one timed window: the round wall times and peak resident
// sets, plus the counter deltas across it.
type phase struct {
	walls []float64
	rss   []float64 // MB
	delta counters
}

// measure repeats rounds until d has passed (at least one round). The
// caller collects the heap once before it, so set-up garbage stays out
// of the window, while each round pays for the collections its own
// allocation causes, as it would in a long-running process.
func measure(e *env, run runner, r *rec, d time.Duration) (phase, error) {
	rss, err := startRSSSampler()
	if err != nil {
		return phase{}, err
	}
	defer rss.stop()
	before := readCounters()
	start := time.Now()
	var p phase
	for len(p.walls) == 0 || time.Since(start) < d {
		rss.reset()
		root, end := e.tr.start("round", ref{}, e.tr.newReq())
		t0 := time.Now()
		err := run.round(e, r, root)
		p.walls = append(p.walls, time.Since(t0).Seconds())
		end()
		peak, rerr := rss.peakMB()
		p.rss = append(p.rss, peak)
		if err := errors.Join(err, rerr); err != nil {
			return p, err
		}
	}
	after := readCounters()
	p.delta = counters{
		events:   after.events - before.events,
		timeouts: after.timeouts - before.timeouts,
		busy:     after.busy - before.busy,
		alloc:    after.alloc - before.alloc,
	}
	return p, nil
}

// result is the JSON object printed as the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: "+workloadNames())
		seed    = flag.Int64("seed", 1, fmt.Sprintf("seed every generated input derives from (%d is held out)", heldOutSeed))
		seconds = flag.Int("seconds", 10, "how long the run measures")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		root    = flag.String("root", ".", "checkout root the workloads read inputs from")
	)
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %s)\n", *name, workloadNames())
		os.Exit(2)
	}
	res, err := run(w, *root, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	printResult(os.Stdout, res)
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// run sets the workload up as often as setupMin, setupMax and
// setupBudget say, measures the last instance and checks its outputs.
func run(w workloadDef, root string, seed int64, d time.Duration, traced bool) (*result, error) {
	work := filepath.Join(root, ".bench_build", "run", fmt.Sprintf("%s-%d-%d", w.name, seed, os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	e := &env{root: root, work: work, seed: seed}
	r := newRec()

	var setups []float64
	var inst runner
	var spent time.Duration
	for len(setups) < setupMin || (spent < setupBudget && len(setups) < setupMax) {
		if inst != nil {
			inst.close()
		}
		t0 := time.Now()
		var err error
		inst, err = w.setup(e, r)
		if err != nil {
			return nil, fmt.Errorf("%s setup: %w", w.name, err)
		}
		took := time.Since(t0)
		spent += took
		setups = append(setups, took.Seconds())
	}
	defer inst.close()

	if !traced {
		runtime.GC()
		p, err := measure(e, inst, r, d)
		if err != nil {
			return nil, err
		}
		if err := inst.check(e, r); err != nil {
			return nil, err
		}
		printHuman(os.Stdout, "not in the result line", untracedValues(r, p, setups))
		return finish(r, endToEndValues(r, p, setups), endToEnd), nil
	}

	// Traced run: half the time untraced for the reference wall time,
	// half under the CPU profile and spans. Each half starts from a
	// collected heap, and that collection stays outside the profile.
	runtime.GC()
	plain, err := measure(e, inst, r, d/2)
	if err != nil {
		return nil, err
	}
	e.tr = newTracer()
	runtime.GC()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	traced2, err := measure(e, inst, r, d/2)
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	if err := inst.check(e, r); err != nil {
		return nil, err
	}
	shares, err := profileShares(prof.Bytes())
	if err != nil {
		return nil, err
	}
	spans := filepath.Join(root, ".bench_build", fmt.Sprintf("spans-%s-%d.jsonl", w.name, seed))
	if err := e.tr.write(spans); err != nil {
		return nil, err
	}
	vals := layerValues(r, plain, traced2, shares)
	for k, x := range timingValues(r, append(plain.walls, traced2.walls...), setups) {
		vals[k] = x
	}
	vals["trace.spans"] = float64(e.tr.count())
	return finish(r, vals, perLayer), nil
}

// endToEndValues derives the end-to-end metrics of an untraced run.
func endToEndValues(r *rec, p phase, setups []float64) map[string]float64 {
	ops := summarise(append([]float64(nil), r.ops...))
	return map[string]float64{
		"setup_s":     medianOf(setups),
		"wall_s":      medianOf(p.walls),
		"op_p50_ms":   ops.p50,
		"op_tail_ms":  ops.tail,
		"peak_rss_mb": medianOf(p.rss),
	}
}

// timingValues reports the tails and sample counts behind the medians
// wall_s, setup_s and op_p50_ms give, by the rule summarise applies.
func timingValues(r *rec, walls, setups []float64) map[string]float64 {
	w := summarise(append([]float64(nil), walls...))
	st := summarise(append([]float64(nil), setups...))
	r.mu.Lock()
	ops := summarise(append([]float64(nil), r.ops...))
	r.mu.Unlock()
	return map[string]float64{
		"bench.rounds":        float64(w.n),
		"bench.wall_tail_s":   w.tail,
		"bench.setup_samples": float64(st.n),
		"bench.setup_tail_s":  st.tail,
		"bench.op_samples":    float64(ops.n),
		"bench.op_tail_pct":   ops.tailPct,
	}
}

// untracedValues collects what an untraced run measured beyond its
// end-to-end metrics: the tails and sample counts of its timings and
// the per-layer values the workload set without a profile (serve's
// per-class latencies among them). They are printed for reading, not
// put in the result line, whose metrics are the end-to-end list.
func untracedValues(r *rec, p phase, setups []float64) map[string]float64 {
	v := timingValues(r, p.walls, setups)
	r.mu.Lock()
	defer r.mu.Unlock()
	for k, x := range r.counts {
		v[k] = x / float64(len(p.walls))
	}
	for k, x := range r.values {
		v[k] = x
	}
	return v
}

// layerValues derives the per-layer metrics of a traced run. Counts
// cover every round of both halves; shares come from the traced half's
// profile.
func layerValues(r *rec, plain, traced phase, shares map[string]float64) map[string]float64 {
	rounds := float64(len(plain.walls) + len(traced.walls))
	v := map[string]float64{}
	for k, x := range r.counts {
		v[k] = x / rounds
	}
	for k, x := range r.values {
		v[k] = x
	}
	for b, m := range shareBuckets {
		v[m] = shares[b]
	}
	events := float64(plain.delta.events + traced.delta.events)
	busy := plain.delta.busy + traced.delta.busy
	v["error_rate"] = ratio(float64(r.failed), float64(r.attempted))
	v["trace.overhead"] = ratio(medianOf(traced.walls), medianOf(plain.walls)) - 1
	v["sim.events"] = events / rounds
	v["sim.ns_per_event"] = ratio(busy*1e9, events)
	v["sim.heap_high_water"] = float64(sim.GlobalStats().HeapHighWater)
	v["futex.timeouts"] = float64(plain.delta.timeouts+traced.delta.timeouts) / rounds
	v["sweep.busy_s"] = busy / rounds
	v["results.bytes_per_run"] = medianOf(r.runBytes)
	v["runtime.alloc_mb"] = float64(plain.delta.alloc+traced.delta.alloc) / rounds / (1 << 20)
	return v
}

// finish assembles the printed result: every listed metric, in the
// listed unit, 0 where the workload did not produce it.
func finish(r *rec, vals map[string]float64, defs []metricDef) *result {
	res := &result{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metric{},
	}
	for _, d := range defs {
		x := vals[d.name]
		if math.IsNaN(x) || math.IsInf(x, 0) {
			x = 0
		}
		res.Metrics[d.name] = metric{Value: x, Unit: d.unit}
	}
	for _, f := range r.failures {
		fmt.Fprintln(os.Stderr, "perfbench: failed:", f)
	}
	return res
}

// printResult writes one line per metric ahead of the JSON result.
func printResult(f *os.File, res *result) {
	vals := map[string]float64{}
	for n, m := range res.Metrics {
		vals[n] = m.Value
	}
	printHuman(f, "result", vals)
	fmt.Fprintf(f, "attempted %d, failed %d\n", res.Attempted, res.Failed)
}

// printHuman writes a heading and one line per value, in name order,
// with the unit the catalogue gives it.
func printHuman(f *os.File, heading string, vals map[string]float64) {
	units := map[string]string{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		units[d.name] = d.unit
	}
	names := make([]string, 0, len(vals))
	for n := range vals {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(f, "# %s\n", heading)
	for _, n := range names {
		fmt.Fprintf(f, "%-34s %14s %s\n", n, strconv.FormatFloat(vals[n], 'g', 6, 64), units[n])
	}
}

// rssSampler tracks the process's peak resident set between resets by
// reading /proc/self/statm every rssEvery. A failed read fails the run.
type rssSampler struct {
	mu   sync.Mutex
	peak int64 // bytes
	err  error // the first failed read
	done chan struct{}
	wg   sync.WaitGroup
}

const rssEvery = 5 * time.Millisecond

func startRSSSampler() (*rssSampler, error) {
	s := &rssSampler{done: make(chan struct{})}
	s.sample()
	if s.err != nil {
		return nil, s.err
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			select {
			case <-s.done:
				return
			case <-t.C:
				s.sample()
			}
		}
	}()
	return s, nil
}

func (s *rssSampler) sample() {
	n, err := residentBytes()
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		if s.err == nil {
			s.err = err
		}
		return
	}
	if n > s.peak {
		s.peak = n
	}
}

// reset starts a new peak from the current resident set.
func (s *rssSampler) reset() {
	s.mu.Lock()
	s.peak = 0
	s.mu.Unlock()
	s.sample()
}

// peakMB samples once more and returns the peak since the last reset.
func (s *rssSampler) peakMB() (float64, error) {
	s.sample()
	s.mu.Lock()
	defer s.mu.Unlock()
	return float64(s.peak) / (1 << 20), s.err
}

func (s *rssSampler) stop() {
	close(s.done)
	s.wg.Wait()
}

// residentBytes reads the process's resident set from /proc/self/statm.
func residentBytes() (int64, error) {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, fmt.Errorf("resident set: %w", err)
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0, fmt.Errorf("resident set: malformed /proc/self/statm %q", b)
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("resident set: %w", err)
	}
	return pages * int64(os.Getpagesize()), nil
}
