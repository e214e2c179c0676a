package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"lockin/internal/bench/opts"
	"lockin/internal/experiments"
	"lockin/internal/results"
	"lockin/internal/serve"
	"lockin/internal/sweep"
)

// serve-mix: lockbench serve in-process on a loopback listener, driven
// as a closed loop by 2 clients. Each client's round is a fixed,
// seed-shuffled batch of misses (fresh-seed POSTs that journal,
// simulate, encode, write the cache and evict), hits (re-POSTs of a
// cached key) and queries (raw run, /slice, /project and /v1/diff over
// a fixed hot set). Set-up fills the cache to its run bound, so every
// miss evicts exactly one run.
var serveMix = workloadDef{
	name:  "serve-mix",
	why:   "closed loop of 2 clients against lockbench serve: misses, cache hits and slice/project/diff queries; serve, results and the journal dominate",
	setup: setupServe,
}

const (
	serveExp       = "scenario:hamsterdb"
	serveHot       = 4  // hot runs every hit and query reads
	serveCacheRuns = 16 // -cache-max-runs: the hot set plus 12 runs misses may evict
	serveClients   = 2
	// serveChecked bounds how many misses a run re-simulates serially
	// to check serve's answers: enough to catch a defect in the byte
	// path without doubling the run's length.
	serveChecked = 32
	serveSlice   = "read=90"
	serveProject = "read"
)

// serveBatch is one client's round: the request classes it sends, in
// an order shuffled per client and round from the workload seed.
var serveBatch = []string{"miss", "miss", "hit", "hit", "query", "query", "query", "query"}

// queryRoutes are the GET routes a query cycles through.
var queryRoutes = []string{"run", "slice", "project", "diff"}

// serveRoutes maps the per-layer handler metrics onto serve's routes.
var serveRoutes = map[string]string{
	"post_runs": "POST /v1/runs",
	"get_run":   "GET /v1/runs/{key}",
	"slice":     "GET /v1/runs/{key}/slice",
	"project":   "GET /v1/runs/{key}/project",
	"diff":      "GET /v1/diff",
	"events":    "GET /v1/runs/{key}/events",
}

type hotRun struct {
	key, query string
	raw        []byte // the stored bytes GET /v1/runs/{key} serves
	run        *results.Run
	slice      []byte // expected /slice bytes
	project    []byte // expected /project bytes
}

type missOut struct {
	query string // the submission's query string (experiment and options)
	raw   []byte
}

type serveRun struct {
	dir     string
	srv     *serve.Server
	hs      *http.Server
	base    string
	clients [serveClients]*http.Client
	rngs    [serveClients]*rand.Rand
	seed    int64
	nextK   [serveClients]int // per-client miss counter
	nextHot [serveClients]int // per-client hot-set cursor

	hot []hotRun

	start     scrape  // /metrics at the end of set-up
	busyStart float64 // sweep busy seconds at the end of set-up

	mu     sync.Mutex
	misses []missOut
	lat    map[string][]float64 // submit, hit, query, accept, queue, run (ms)
}

// submitQuery is the POST query naming serveExp at quick scale.
func submitQuery(seed int64) string {
	return url.Values{
		"experiment": {serveExp}, "quick": {"true"},
		"seed": {strconv.FormatInt(seed, 10)}, "workers": {"1"},
	}.Encode()
}

func setupServe(e *env, r *rec) (runner, error) {
	if err := compileBundle(r); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(e.work, "serve-")
	if err != nil {
		return nil, err
	}
	s := &serveRun{dir: dir, seed: e.seed, lat: map[string][]float64{}}
	s.srv, err = serve.New(serve.Config{
		CacheDir: filepath.Join(dir, "cache"), Pool: serveClients, CacheMaxRuns: serveCacheRuns,
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.srv.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	s.base = "http://" + ln.Addr().String()
	s.hs = &http.Server{Handler: s.srv.Handler()}
	go s.hs.Serve(ln)
	for c := range s.clients {
		s.clients[c] = &http.Client{
			Timeout:   time.Minute,
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		}
		s.rngs[c] = rand.New(rand.NewSource(mixSeed(e.seed, 100+c)))
	}
	if err := s.prefill(e); err != nil {
		s.close()
		return nil, err
	}
	if s.start, err = fetchScrape(s.clients[0], s.base+"/metrics"); err != nil {
		s.close()
		return nil, err
	}
	s.busyStart = sweep.TotalBusySeconds()
	return s, nil
}

// prefill simulates the hot set and the filler runs, two at a time, so
// the cache starts at its run bound.
func (s *serveRun) prefill(e *env) error {
	queries := make([]string, serveCacheRuns)
	for i := range queries {
		queries[i] = submitQuery(mixSeed(e.seed, 1000+i))
	}
	raws := make([][]byte, len(queries))
	errs := make([]error, serveClients)
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(queries); i += serveClients {
				_, raw, err := s.submit(e, c, queries[i], ref{})
				if err != nil {
					errs[c] = err
					return
				}
				raws[i] = raw
			}
		}(c)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	// The hot set is submitted last, so the fillers are the older runs
	// the first misses evict.
	for i := len(queries) - serveHot; i < len(queries); i++ {
		run, err := results.Decode(raws[i])
		if err != nil {
			return err
		}
		h := hotRun{key: run.Meta.CacheKey(), query: queries[i], raw: raws[i], run: run}
		if h.slice, err = encodeQuery(run, serveSlice, ""); err != nil {
			return err
		}
		if h.project, err = encodeQuery(run, "", serveProject); err != nil {
			return err
		}
		s.hot = append(s.hot, h)
	}
	return nil
}

// encodeQuery applies a slice (axis=value) or a projection (axes) to a
// run the way serve does and returns the encoded bytes.
func encodeQuery(run *results.Run, slice, project string) ([]byte, error) {
	var out *results.Run
	var err error
	if slice != "" {
		axis, val, _ := strings.Cut(slice, "=")
		out, err = results.Slice(run, []results.Fix{{Axis: axis, Value: val}})
	} else {
		out, err = results.Project(run, strings.Split(project, ","))
	}
	if err != nil {
		return nil, err
	}
	return results.Encode(out)
}

func (s *serveRun) round(e *env, r *rec, root ref) error {
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		order := append([]string(nil), serveBatch...)
		s.rngs[c].Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for _, class := range order {
				s.do(e, r, c, class, root)
			}
		}(c)
	}
	wg.Wait()
	// The client-side query cost of the results layer: one slice and
	// one projection of a hot run per round.
	_, end := e.tr.start("results.Query", root, 0)
	t0 := time.Now()
	_, err := encodeQuery(s.hot[0].run, serveSlice, "")
	if err == nil {
		_, err = encodeQuery(s.hot[0].run, "", serveProject)
	}
	r.add("results.query_ms", ms(time.Since(t0)))
	end()
	return err
}

// do sends one request of the given class from client c and records it.
func (s *serveRun) do(e *env, r *rec, c int, class string, root ref) {
	op, end := e.tr.start("client."+class, root, e.tr.newReq())
	defer end()
	t0 := time.Now()
	var err error
	switch class {
	case "miss":
		s.nextK[c]++
		q := submitQuery(mixSeed(s.seed, 1_000_000*(c+1)+s.nextK[c]))
		var raw []byte
		_, raw, err = s.submit(e, c, q, op)
		if err == nil {
			err = timeCodec(e, r, raw, op)
		}
		if err == nil {
			s.mu.Lock()
			s.misses = append(s.misses, missOut{query: q, raw: raw})
			s.mu.Unlock()
		}
		class = "submit"
	case "hit":
		h := s.nextHotRun(c)
		var status string
		status, _, err = s.post(e, c, h.query, op)
		if err == nil && status != "cached" {
			err = fmt.Errorf("hit on %s answered %q, want cached", h.key, status)
		}
	case "query":
		err = s.query(e, c, op)
	}
	d := time.Since(t0)
	r.op(d, err)
	s.mu.Lock()
	s.lat[class] = append(s.lat[class], ms(d))
	s.mu.Unlock()
}

func (s *serveRun) nextHotRun(c int) hotRun {
	s.nextHot[c]++
	return s.hot[(s.nextHot[c]+c)%len(s.hot)]
}

// query GETs one hot run through the next route in queryRoutes and
// checks the body against the client-side computation.
func (s *serveRun) query(e *env, c int, parent ref) error {
	h := s.nextHotRun(c)
	route := queryRoutes[s.nextHot[c]/len(s.hot)%len(queryRoutes)]
	var path string
	var want []byte
	switch route {
	case "run":
		path, want = "/v1/runs/"+h.key, h.raw
	case "slice":
		path, want = "/v1/runs/"+h.key+"/slice?"+serveSlice, h.slice
	case "project":
		path, want = "/v1/runs/"+h.key+"/project?axes="+serveProject, h.project
	case "diff":
		other := s.hot[(s.nextHot[c]+c+1)%len(s.hot)]
		path = "/v1/diff?a=" + h.key + "&b=" + other.key
	}
	body, err := s.get(e, c, path, parent)
	if err != nil {
		return err
	}
	if route == "diff" {
		var d struct {
			Differences int `json:"differences"`
		}
		if err := json.Unmarshal(body, &d); err != nil {
			return fmt.Errorf("diff: %w", err)
		}
		if d.Differences == 0 {
			return errors.New("diff of two seeds reported no differences")
		}
		return nil
	}
	if !bytes.Equal(body, want) {
		return fmt.Errorf("GET %s: served bytes differ from the client-side results query", path)
	}
	return nil
}

// submit POSTs a run that is not cached, follows its event stream to
// the terminal event and fetches the stored bytes. It returns the run
// key and bytes.
func (s *serveRun) submit(e *env, c int, query string, parent ref) (string, []byte, error) {
	t0 := time.Now()
	status, key, err := s.post(e, c, query, parent)
	if err != nil {
		return "", nil, err
	}
	accepted := time.Since(t0)
	if status != "queued" && status != "running" {
		return "", nil, fmt.Errorf("miss %s answered %q, want queued or running", query, status)
	}
	running, done, err := s.follow(e, c, key, parent)
	if err != nil {
		return "", nil, err
	}
	raw, err := s.get(e, c, "/v1/runs/"+key, parent)
	if err != nil {
		return "", nil, err
	}
	s.mu.Lock()
	s.lat["accept"] = append(s.lat["accept"], ms(accepted))
	if !running.IsZero() {
		s.lat["queue"] = append(s.lat["queue"], ms(running.Sub(t0.Add(accepted))))
		s.lat["run"] = append(s.lat["run"], ms(done.Sub(running)))
	}
	s.mu.Unlock()
	return key, raw, nil
}

// post submits query and returns the answer's status and run key.
func (s *serveRun) post(e *env, c int, query string, parent ref) (string, string, error) {
	_, end := e.tr.start("http POST /v1/runs", parent, 0)
	defer end()
	resp, err := s.clients[c].Post(s.base+"/v1/runs?"+query, "application/json", nil)
	if err != nil {
		return "", "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", "", err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return "", "", fmt.Errorf("POST %s: %s: %s", query, resp.Status, bytes.TrimSpace(body))
	}
	var sr struct {
		Key    string `json:"key"`
		Status string `json:"status"`
	}
	if err := json.Unmarshal(body, &sr); err != nil {
		return "", "", fmt.Errorf("POST %s: %w", query, err)
	}
	return sr.Status, sr.Key, nil
}

// follow reads a run's event stream until its terminal event and
// returns when it was first seen running (zero if it never was) and
// when it was done.
func (s *serveRun) follow(e *env, c int, key string, parent ref) (running, done time.Time, err error) {
	_, end := e.tr.start("http GET events", parent, 0)
	defer end()
	resp, err := s.clients[c].Get(s.base + "/v1/runs/" + key + "/events")
	if err != nil {
		return running, done, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return running, done, fmt.Errorf("events %s: %s", key, resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, ok := strings.CutPrefix(sc.Text(), "event: ")
		if !ok {
			continue
		}
		switch name {
		case "failed":
			return running, done, fmt.Errorf("run %s failed", key)
		case "done":
			done = time.Now()
			// Drain the stream so the connection is reused.
			io.Copy(io.Discard, resp.Body)
			return running, done, nil
		default:
			if running.IsZero() {
				running = time.Now()
			}
		}
	}
	if err := sc.Err(); err != nil {
		return running, done, err
	}
	return running, done, fmt.Errorf("events %s: stream ended without a terminal event", key)
}

// get fetches path and returns the body of a 200 answer.
func (s *serveRun) get(e *env, c int, path string, parent ref) ([]byte, error) {
	_, end := e.tr.start("http GET "+strings.SplitN(path, "?", 2)[0], parent, 0)
	defer end()
	resp, err := s.clients[c].Get(s.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", path, resp.Status, bytes.TrimSpace(body))
	}
	return body, nil
}

// serialRun produces a submission's run directly, serially, the way
// the CLI would: the reference serve's answer must equal.
func serialRun(query string) (*results.Run, error) {
	q, err := url.ParseQuery(query)
	if err != nil {
		return nil, err
	}
	x, err := experiments.Find(q.Get("experiment"))
	if err != nil {
		return nil, err
	}
	q.Del("experiment")
	o, err := opts.ApplyQuery(opts.Defaults(), q, "seed", "scale", "quick", "workers")
	if err != nil {
		return nil, err
	}
	eo := o.ExperimentOptions()
	eo.Workers = 1
	return &results.Run{Meta: o.RunMeta(x), Tables: x.Run(eo)}, nil
}

func (s *serveRun) check(e *env, r *rec) error {
	end, err := fetchScrape(s.clients[0], s.base+"/metrics")
	if err != nil {
		return err
	}
	busy := sweep.TotalBusySeconds() - s.busyStart
	s.mu.Lock()
	misses := s.misses
	lat := s.lat
	s.mu.Unlock()
	nmiss := len(misses)
	if len(misses) > serveChecked {
		misses = misses[:serveChecked]
	}

	// The checked misses' served bytes must equal the serial path's.
	_, span := e.tr.start("check.serial", ref{}, e.tr.newReq())
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(misses); i += serveClients {
				if err := sameAsSerial(misses[i]); err != nil {
					r.fail(err)
				}
			}
		}(c)
	}
	wg.Wait()
	span()
	pin, err := serialRun(submitQuery(pinSeed))
	if err != nil {
		return err
	}
	d, err := digest(pin)
	if err != nil {
		return err
	}
	checkPinned(r, "serve-mix", d)

	// A hit never simulates: the server may have simulated exactly the
	// misses since set-up.
	sims := end.delta(s.start, "runs_simulated_total")
	if extra := int(sims) - nmiss; extra > 0 {
		for i := 0; i < extra; i++ {
			r.fail(fmt.Errorf("runs_simulated_total rose by %v for %d misses: a hit simulated", sims, nmiss))
		}
	}
	r.add("serve.cache_hits", end.delta(s.start, "cache_hits_total"))
	r.add("serve.cache_misses", end.delta(s.start, "cache_misses_total"))
	r.add("serve.runs_simulated", sims)
	r.add("serve.evictions", end.delta(s.start, "cache_evictions_total"))

	for class, name := range map[string]string{"submit": "serve.submit", "hit": "serve.hit", "query": "serve.query"} {
		dd := summarise(lat[class])
		r.set(name+"_p50_ms", dd.p50)
		r.set(name+"_tail_ms", dd.tail)
		r.set(name+"_samples", float64(dd.n))
	}
	r.set("serve.post_accept_ms", medianOf(lat["accept"]))
	r.set("serve.queue_wait_ms", medianOf(lat["queue"]))
	r.set("serve.run_ms", medianOf(lat["run"]))
	const hist = "http_request_duration_seconds"
	for short, route := range serveRoutes {
		r.set("serve.handler_p50_ms."+short, end.histP50(s.start, hist, `route="`+route+`"`))
	}
	// Client time minus server time over the query routes.
	var srvSum, srvN float64
	for _, short := range []string{"get_run", "slice", "project", "diff"} {
		lbl := `{route="` + serveRoutes[short] + `"}`
		srvSum += end.delta(s.start, hist+"_sum"+lbl)
		srvN += end.delta(s.start, hist+"_count"+lbl)
	}
	var cliSum float64
	for _, x := range lat["query"] {
		cliSum += x
	}
	r.set("serve.http_overhead_ms", ratio(cliSum, float64(len(lat["query"])))-1000*ratio(srvSum, srvN))
	var submitSum float64
	for _, x := range lat["submit"] {
		submitSum += x
	}
	r.set("serve.simulate_share", ratio(1000*busy, submitSum))
	return nil
}

// sameAsSerial compares a miss's served bytes with the serial run of
// the same submission.
func sameAsSerial(m missOut) error {
	got, err := results.Decode(m.raw)
	if err != nil {
		return err
	}
	want, err := serialRun(m.query)
	if err != nil {
		return err
	}
	dg, err := digest(got)
	if err != nil {
		return err
	}
	dw, err := digest(want)
	if err != nil {
		return err
	}
	if dg != dw {
		return fmt.Errorf("serve answer for %s differs from the serial run (%s vs %s)", m.query, dg, dw)
	}
	return nil
}

func (s *serveRun) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.hs.Shutdown(ctx)
	s.srv.Close()
	for _, c := range s.clients {
		if c != nil {
			c.CloseIdleConnections()
		}
	}
	os.RemoveAll(s.dir)
}
