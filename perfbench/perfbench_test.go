package main

import (
	"encoding/json"
	"errors"
	"os"
	"regexp"
	"strings"
	"testing"

	"lockin/internal/core"
	"lockin/internal/experiments"
	"lockin/internal/results"
)

func TestTailPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending, so summarise must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n        int
		p50      float64
		tail     float64
		tailPct  float64
		describe string
	}{
		{1, 1, 1, 100, "one sample: no percentile has ten beyond it, tail is the max"},
		{10, 5.5, 10, 100, "ten samples: still none beyond any percentile, tail is the max"},
		{11, 6, 1, 100.0 / 11, "eleven samples: the smallest has exactly ten beyond it"},
		{100, 50.5, 90, 90, "hundred samples: one block, the 90th percentile"},
	} {
		d := summarise(seq(tc.n))
		if d.n != tc.n || d.p50 != tc.p50 || d.tail != tc.tail || d.tailPct != tc.tailPct {
			t.Errorf("%s: got n=%d p50=%v tail=%v at %v%%, want n=%d p50=%v tail=%v at %v%%",
				tc.describe, d.n, d.p50, d.tail, d.tailPct, tc.n, tc.p50, tc.tail, tc.tailPct)
		}
	}
	// More than one block: each block's tail is taken over its own
	// samples, the median of them is reported, and a trailing partial
	// block counts only towards the sample count and the median.
	var xs []float64
	for _, top := range []float64{100, 300, 200} {
		for i := 1; i <= tailBlock; i++ {
			xs = append(xs, top*float64(i)/tailBlock)
		}
	}
	xs = append(xs, 1e9, 1e9, 1e9, 1e9, 1e9, 1e9, 1e9, 1e9, 1e9, 1e9, 1e9)
	if d := summarise(xs); d.n != 311 || d.tail != 180 || d.tailPct != 90 {
		t.Errorf("three blocks and a partial one: got n=%d tail=%v at %v%%, want n=311 tail=180 at 90%%", d.n, d.tail, d.tailPct)
	}
	if d := summarise(nil); d.n != 0 || d.tail != 0 {
		t.Errorf("empty: got %+v", d)
	}
}

// benchmarkJSON is the part of BENCHMARK.json the catalogue must match.
type benchmarkJSON struct {
	Command   []string `json:"command"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	checkName := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q has characters outside [A-Za-z0-9_.-] or is too long", kind, name)
		}
		if seen[name] {
			t.Errorf("%s name %q is used twice", kind, name)
		}
		seen[name] = true
	}

	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		checkName("workload", w.Name)
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the benchmark %q", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of 1-200 characters", w.Name)
		}
	}

	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the benchmark %d", len(bj.EndToEnd), len(endToEnd))
	}
	sawSetup := false
	for i, m := range bj.EndToEnd {
		checkName("end-to-end metric", m.Name)
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end %d: BENCHMARK.json %s [%s], benchmark %s [%s]",
				i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("unit %q of %s has characters outside [A-Za-z0-9_/%%.-]", m.Unit, m.Name)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
		if m.Name == "setup_s" {
			sawSetup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !sawSetup {
		t.Error("end-to-end metrics lack setup_s in s, lower better")
	}

	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the benchmark %d", len(bj.PerLayer), len(perLayer))
	}
	for i, m := range bj.PerLayer {
		checkName("per-layer metric", m.Name)
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer %d: BENCHMARK.json %s [%s], benchmark %s [%s]",
				i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("unit %q of %s has characters outside [A-Za-z0-9_/%%.-]", m.Unit, m.Name)
		}
	}
	for bucket, metric := range shareBuckets {
		if !seen[metric] {
			t.Errorf("profile bucket %s reports as %s, which is not a listed metric", bucket, metric)
		}
	}
}

func TestErrorRate(t *testing.T) {
	r := newRec()
	r.op(1e6, nil)
	r.op(2e6, nil)
	r.op(3e6, errors.New("answered 500"))
	r.op(4e6, nil)
	r.fail(errors.New("digest mismatch")) // a check failing after the fact
	vals := layerValues(r, phase{walls: []float64{1}}, phase{walls: []float64{1}}, nil)
	if got := vals["error_rate"]; got != 0.5 {
		t.Errorf("error_rate = %v, want 2 failed of 4 attempted = 0.5", got)
	}
	res := finish(r, vals, perLayer)
	if res.Correct || res.Attempted != 4 || res.Failed != 2 {
		t.Errorf("result: correct=%v attempted=%d failed=%d, want false 4 2", res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(perLayer) {
		t.Errorf("traced result has %d metrics, want every per-layer one (%d)", len(res.Metrics), len(perLayer))
	}
	clean := newRec()
	clean.op(1e6, nil)
	if res := finish(clean, endToEndValues(clean, phase{walls: []float64{1}}, []float64{1}), endToEnd); !res.Correct || res.Failed != 0 {
		t.Errorf("clean run reported correct=%v failed=%d", res.Correct, res.Failed)
	}
}

// TestDigestWorkerInvariant pins the benchmark's output check: the
// digest of a workload's tables is the same on 1 and 2 sweep workers.
func TestDigestWorkerInvariant(t *testing.T) {
	e := &env{}
	m := &micro{cells: microGrid([]core.Kind{core.KindTicket, core.KindMutexee}, []int{4, 50}, microDuration/8)}
	one, err := digest(m.microRun(3, m.sweepGrid(e, 3, 1, ref{})))
	if err != nil {
		t.Fatal(err)
	}
	two, err := digest(m.microRun(3, m.sweepGrid(e, 3, 2, ref{})))
	if err != nil {
		t.Fatal(err)
	}
	if one != two {
		t.Errorf("micro grid digest: 1 worker %s, 2 workers %s", one, two)
	}

	x, err := experiments.Find("scenario:kyoto")
	if err != nil {
		t.Fatal(err)
	}
	s := &systemsRun{exps: []experiments.Experiment{x}}
	runs1, _, _ := s.runAll(e, 3, 1, ref{})
	runs2, _, _ := s.runAll(e, 3, 2, ref{})
	d1, err := digest(runs1...)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := digest(runs2...)
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Errorf("systems digest: 1 worker %s, 2 workers %s", d1, d2)
	}
}

func TestDigestIgnoresProvenance(t *testing.T) {
	a := &results.Run{Meta: results.Meta{Experiment: "x", Seed: 1, Workers: 1, Version: "abc"}}
	b := &results.Run{Meta: results.Meta{Experiment: "x", Seed: 1, Workers: 2, Version: "def",
		Perf: results.NewPerf(5e6, 3)}}
	c := &results.Run{Meta: results.Meta{Experiment: "x", Seed: 2}}
	da, _ := digest(a)
	db, _ := digest(b)
	dc, _ := digest(c)
	if da != db {
		t.Errorf("Perf, Version or Workers changed the digest: %s vs %s", da, db)
	}
	if da == dc {
		t.Error("a different seed gave the same digest")
	}
}

func TestBucketOf(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.chanrecv", "lockin/internal/sim.(*Proc).park"}, "handoff"},
		{[]string{"lockin/internal/sim.(*Kernel).siftDown", "lockin/internal/sim.(*Kernel).Run"}, "heap"},
		{[]string{"lockin/internal/sim.(*Kernel).Run"}, "sim"},
		{[]string{"runtime.memmove", "lockin/internal/power.(*Meter).recompute"}, "power"},
		{[]string{"encoding/json.Marshal", "lockin/internal/results.Encode"}, "results"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.mallocgc", "lockin/internal/scenario.Compile"}, "workload"},
		{[]string{"syscall.Syscall"}, "other"},
	} {
		if got := bucketOf(tc.stack); got != tc.want {
			t.Errorf("bucketOf(%v) = %s, want %s", tc.stack, got, tc.want)
		}
	}
}

func TestScrapeHistogramMedian(t *testing.T) {
	page := `# TYPE http_request_duration_seconds histogram
http_request_duration_seconds_bucket{route="GET /x",le="0.001"} 2
http_request_duration_seconds_bucket{route="GET /x",le="0.005"} 10
http_request_duration_seconds_bucket{route="GET /x",le="+Inf"} 10
http_request_duration_seconds_sum{route="GET /x"} 0.02
http_request_duration_seconds_count{route="GET /x"} 10
runs_simulated_total 7
`
	s, err := parseScrape(strings.NewReader(page))
	if err != nil {
		t.Fatal(err)
	}
	if s["runs_simulated_total"] != 7 {
		t.Errorf("counter = %v", s["runs_simulated_total"])
	}
	// Median: 5 of 10; bucket (1ms, 5ms] holds samples 3-10, so the
	// median sits 3/8 of the way through it.
	if got, want := s.histP50(scrape{}, "http_request_duration_seconds", `route="GET /x"`), 2.5; got != want {
		t.Errorf("p50 = %v ms, want %v", got, want)
	}
}
