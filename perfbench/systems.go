package main

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"lockin/internal/experiments"
	"lockin/internal/results"
	"lockin/internal/scenario"
	"lockin/internal/sweep"
)

// systems-mix: the §6 systems as lockbench runs them, on 2 sweep
// workers: fig13 (the hand-coded system profiles) plus every bundled
// scenario:* spec, quick grids at systemsScale. One round runs them
// all, one after another, at the workload seed, so every round does the
// same work and must produce the same bytes.
var systemsMix = workloadDef{
	name:  "systems-mix",
	why:   "§6 systems (fig13 profiles + bundled scenario specs): event-heap heavy, oversubscription, blocking I/O, condvar queues",
	setup: setupSystems,
}

const (
	systemsScale   = 0.25
	systemsWorkers = 2
)

type systemsRun struct {
	exps   []experiments.Experiment
	rounds int
	first  string // digest of the first round
}

// compileBundle times a fresh parse and compile of every bundled
// scenario spec (the work the scenario package does at start-up).
func compileBundle(r *rec) error {
	t0 := time.Now()
	if _, err := scenario.Bundled(); err != nil {
		return err
	}
	r.set("scenario.compile_ms", ms(time.Since(t0)))
	return nil
}

func setupSystems(e *env, r *rec) (runner, error) {
	if err := compileBundle(r); err != nil {
		return nil, err
	}
	s := &systemsRun{}
	ids := []string{"fig13"}
	for _, id := range experiments.IDs() {
		if strings.HasPrefix(id, "scenario:") {
			ids = append(ids, id)
		}
	}
	for _, id := range ids {
		x, err := experiments.Find(id)
		if err != nil {
			return nil, err
		}
		s.exps = append(s.exps, x)
	}
	// Warm each experiment on its first grid cell.
	for _, x := range s.exps {
		x.Run(experiments.Options{Seed: e.seed, Scale: systemsScale, Quick: true, Workers: systemsWorkers, OnlyCell: 1})
	}
	return s, nil
}

// runAll runs every experiment at seed and returns the runs plus each
// experiment's wall time and sweep counters.
func (s *systemsRun) runAll(e *env, seed int64, workers int, root ref) ([]*results.Run, []time.Duration, []*sweep.Stats) {
	runs := make([]*results.Run, len(s.exps))
	took := make([]time.Duration, len(s.exps))
	stats := make([]*sweep.Stats, len(s.exps))
	for i, x := range s.exps {
		st := &sweep.Stats{}
		o := experiments.Options{Seed: seed, Scale: systemsScale, Quick: true, Workers: workers, Stats: st}
		_, end := e.tr.start("experiments.Run:"+x.ID, root, 0)
		t0 := time.Now()
		tables := x.Run(o)
		took[i] = time.Since(t0)
		end()
		m := results.Meta{Experiment: x.ID, Seed: seed, Scale: systemsScale, Quick: true, SpecHash: x.SpecHash}
		if x.Axes != nil {
			m.Axes = x.Axes(o)
		}
		runs[i] = &results.Run{Meta: m, Tables: tables}
		stats[i] = st
	}
	return runs, took, stats
}

func (s *systemsRun) round(e *env, r *rec, root ref) error {
	s.rounds++
	t0 := time.Now()
	runs, took, stats := s.runAll(e, e.seed, systemsWorkers, root)
	wall := time.Since(t0)
	var busy time.Duration
	var cells []float64
	for i, x := range s.exps {
		r.op(took[i], nil)
		if x.ID == "fig13" {
			r.add("experiments.profiles_s", took[i].Seconds())
		} else {
			r.add("experiments.specs_s", took[i].Seconds())
		}
		busy += stats[i].Busy()
		if n := stats[i].Cells(); n > 0 {
			cells = append(cells, ms(stats[i].Busy())/float64(n))
		}
	}
	// Cells run inside the experiments, so only each experiment's mean
	// cell time is visible from outside.
	r.set("sweep.cell_p50_ms", medianOf(cells))
	r.set("sweep.cell_max_ms", maxOf(cells))
	r.add("sweep.utilisation", busy.Seconds()/(wall.Seconds()*float64(systemsWorkers)))

	d, err := timedDigest(e, r, root, runs...)
	switch {
	case err != nil:
		return err
	case s.first == "":
		s.first = d
	case d != s.first:
		r.fail(fmt.Errorf("systems-mix: round %d digest %s differs from the first round's %s", s.rounds, d, s.first))
	}
	return nil
}

func (s *systemsRun) check(e *env, r *rec) error {
	if s.first == "" {
		return errors.New("systems-mix: no round completed")
	}
	serial, _, _ := s.runAll(e, e.seed, 1, ref{})
	d, err := digest(serial...)
	if err != nil {
		return err
	}
	if d != s.first {
		r.fail(fmt.Errorf("systems-mix: first round digest %s differs from the serial run's %s", s.first, d))
	}
	runs, _, _ := s.runAll(e, pinSeed, systemsWorkers, ref{})
	if d, err = digest(runs...); err != nil {
		return err
	}
	checkPinned(r, "systems-mix", d)
	return nil
}

func (s *systemsRun) close() {}
