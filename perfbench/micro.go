package main

import (
	"errors"
	"fmt"
	"time"

	"lockin/internal/core"
	"lockin/internal/metrics"
	"lockin/internal/results"
	"lockin/internal/sim"
	"lockin/internal/sweep"
	"lockin/internal/workload"
)

// micro-contended: the §5 microbenchmark (fig8/fig11 shape) over every
// lock kind × a thread ladder from under- to over-subscription of the
// 40-context Xeon, one lock, on 2 sweep workers. One round is the whole
// grid.
var microContended = workloadDef{
	name:  "micro-contended",
	why:   "§5 microbenchmark grid: proc handoff, futex sleep/wake, coherence and power recompute do most of the work",
	setup: setupMicro,
}

var microThreads = []int{80, 60, 40, 20, 10, 2}

const (
	microWarmup   sim.Cycles = 200_000
	microDuration sim.Cycles = 2_000_000
	microWorkers             = 2
)

// microCell is one grid cell: a lock kind and its run configuration.
type microCell struct {
	kind core.Kind
	cfg  workload.MicroConfig
}

// microGrid builds the grid over threads × kinds, threads outermost.
// microThreads runs from the costliest cells down, so the 2 workers
// finish on cheap cells and the round's wall time is not set by which
// worker happened to draw the last expensive one.
func microGrid(kinds []core.Kind, threads []int, duration sim.Cycles) []microCell {
	var cells []microCell
	for _, n := range threads {
		for _, k := range kinds {
			c := workload.DefaultMicroConfig(0)
			c.Factory = workload.FactoryFor(k)
			c.Threads = n
			c.Warmup = microWarmup
			c.Duration = duration
			cells = append(cells, microCell{kind: k, cfg: c})
		}
	}
	return cells
}

type micro struct {
	cells []microCell
	first string // digest of the first round's table
}

func setupMicro(e *env, r *rec) (runner, error) {
	m := &micro{cells: microGrid(core.AllKinds(), microThreads, microDuration)}
	// Warm every lock kind once on a short window so lazy runtime and
	// allocator set-up is not charged to the first round.
	for _, c := range microGrid(core.AllKinds(), microThreads[4:5], microDuration/4) {
		workload.RunMicro(c.cfg)
	}
	return m, nil
}

// cellOut is one cell's result plus the host time it took.
type cellOut struct {
	res  workload.Result
	took time.Duration
}

// sweepGrid runs the grid at seed on the given worker count, timing
// every workload.RunMicro call.
func (m *micro) sweepGrid(e *env, seed int64, workers int, root ref) []cellOut {
	o := sweep.Options{Workers: workers, Seed: seed}
	return sweep.Run(o, len(m.cells), func(c sweep.Cell) cellOut {
		cfg := m.cells[c.Index].cfg
		cfg.Machine.Seed = c.Seed
		_, end := e.tr.start("workload.RunMicro", root, 0)
		t0 := time.Now()
		res := workload.RunMicro(cfg)
		took := time.Since(t0)
		end()
		return cellOut{res: res, took: took}
	})
}

// microRun renders the grid's results as a run, the unit the digest
// covers.
func (m *micro) microRun(seed int64, outs []cellOut) *results.Run {
	t := metrics.NewTable("micro-contended", "lock", "threads", "ops", "acquires",
		"end", "tpp", "transfers", "rmws", "futex_waits", "futex_wakes")
	for i, o := range outs {
		c := m.cells[i]
		coh := o.res.Machine.Coh.Stats()
		fx := o.res.Machine.Futex.Stats()
		t.AddRow(c.kind.String(), c.cfg.Threads, o.res.Ops, o.res.TotalAcquires, o.res.EndTime,
			o.res.TPP(), coh.Transfers, coh.RMWs, fx.Waits, fx.Wakes)
	}
	return &results.Run{
		Meta:   results.Meta{Experiment: "perfbench:micro-contended", Seed: seed},
		Tables: []*metrics.Table{t},
	}
}

func (m *micro) round(e *env, r *rec, root ref) error {
	t0 := time.Now()
	outs := m.sweepGrid(e, e.seed, microWorkers, root)
	wall := time.Since(t0)
	var busy time.Duration
	var cycles float64
	for _, o := range outs {
		r.op(o.took, nil)
		busy += o.took
		cycles += float64(o.res.EndTime)
		coh := o.res.Machine.Coh.Stats()
		fx := o.res.Machine.Futex.Stats()
		r.add("coherence.transfers", float64(coh.Transfers))
		r.add("coherence.rmws", float64(coh.RMWs))
		r.add("coherence.watcher_wakes", float64(coh.WatcherWakes))
		r.add("futex.waits", float64(fx.Waits))
		r.add("futex.wakes", float64(fx.Wakes))
	}
	r.add("sweep.utilisation", busy.Seconds()/(wall.Seconds()*float64(microWorkers)))
	r.add("sim.mcycles_per_s", cycles/1e6/wall.Seconds())
	m.recordCells(r, outs)

	d, err := timedDigest(e, r, root, m.microRun(e.seed, outs))
	if err != nil {
		return err
	}
	switch {
	case m.first == "":
		m.first = d
	case d != m.first:
		r.fail(fmt.Errorf("micro-contended: round digest %s differs from the first round's %s", d, m.first))
	}
	return nil
}

// recordCells keeps the cell-time distribution of the latest round.
func (m *micro) recordCells(r *rec, outs []cellOut) {
	xs := make([]float64, len(outs))
	for i, o := range outs {
		xs[i] = ms(o.took)
	}
	r.set("sweep.cell_p50_ms", medianOf(xs))
	r.set("sweep.cell_max_ms", maxOf(xs))
}

func (m *micro) check(e *env, r *rec) error {
	if m.first == "" {
		return errors.New("micro-contended: no round completed")
	}
	d, err := digest(m.microRun(pinSeed, m.sweepGrid(e, pinSeed, microWorkers, ref{})))
	if err != nil {
		return err
	}
	checkPinned(r, "micro-contended", d)
	return nil
}

func (m *micro) close() {}

// timedDigest digests runs, timing each one's encoding and a decode of
// the encoded bytes as the results layer's cost.
func timedDigest(e *env, r *rec, parent ref, runs ...*results.Run) (string, error) {
	for _, run := range runs {
		_, end := e.tr.start("results.Encode", parent, 0)
		t0 := time.Now()
		b, err := results.Encode(run)
		end()
		if err != nil {
			return "", err
		}
		r.add("results.encode_ms", ms(time.Since(t0)))
		if err := timeCodec(e, r, b, parent); err != nil {
			return "", err
		}
	}
	return digest(runs...)
}

// timeCodec times a decode of stored run bytes and records their size
// (results.bytes_per_run is the median over every run handled).
func timeCodec(e *env, r *rec, b []byte, parent ref) error {
	_, end := e.tr.start("results.Decode", parent, 0)
	t0 := time.Now()
	_, err := results.Decode(b)
	end()
	r.add("results.decode_ms", ms(time.Since(t0)))
	r.mu.Lock()
	r.runBytes = append(r.runBytes, float64(len(b)))
	r.mu.Unlock()
	return err
}
