// Package systems runs whole-system workloads on the simulated
// machine: a Runner hosts one execution (machine, measurement window,
// operation accounting), a Definition is a workload body built against
// it, and RunJobs fans definitions × lock factories out as a parallel
// sweep. It also defines the Figure 1 CopyOnWriteArrayList stress
// test, the Figure 2 memory-stress benchmark, the waiting stress tests
// of Figures 3-5 and the idle-power baseline.
//
// The six §6 systems of the paper (HamsterDB, Kyoto Cabinet,
// Memcached, MySQL, RocksDB, SQLite) are not defined here: each is a
// bundled declarative spec (internal/scenario/specs), and each Table 3
// cell is a plane of one spec — a fixed value for every non-lock axis —
// resolved into a Definition by experiments.Systems.
package systems

import (
	"fmt"
	"math/rand"

	"lockin/internal/machine"
	"lockin/internal/metrics"
	"lockin/internal/power"
	"lockin/internal/sim"
	"lockin/internal/sweep"
	"lockin/internal/workload"
)

// Runner hosts one system execution: machine, measurement window and
// operation accounting shared by all workload bodies.
type Runner struct {
	M        *machine.Machine
	measFrom sim.Cycles
	measTo   sim.Cycles
	ops      uint64
	lat      *metrics.Histogram
	rngSeed  int64
}

// NewRunner builds a runner on a fresh machine with the given window.
func NewRunner(mc machine.Config, warmup, duration sim.Cycles) *Runner {
	return &Runner{
		M:        machine.New(mc),
		measFrom: warmup,
		measTo:   warmup + duration,
		lat:      metrics.NewHistogram(),
		rngSeed:  mc.Seed,
	}
}

// Running reports whether the thread should start another operation.
func (r *Runner) Running(t *machine.Thread) bool { return t.Proc().Now() < r.measTo }

// Note records one completed operation that started at the given
// time. It reports whether the operation landed in the measurement
// window and was counted, so callers keeping side tallies (per-group
// columns in compiled scenarios) count exactly the same operations.
func (r *Runner) Note(t *machine.Thread, start sim.Cycles) bool {
	end := t.Proc().Now()
	if end >= r.measFrom && end < r.measTo {
		r.ops++
		r.lat.Record(end - start)
		return true
	}
	return false
}

// RNG returns a per-thread deterministic RNG.
func (r *Runner) RNG(id int) *rand.Rand {
	return rand.New(rand.NewSource(r.rngSeed + int64(id)*104729))
}

// Result is a finished system run.
type Result struct {
	metrics.Measurement
	Latency *metrics.Histogram
}

// Finish drains the simulation and returns the measurement.
func (r *Runner) Finish() Result {
	var e0, e1 power.Energy
	r.M.K.Schedule(r.measFrom, func() { e0 = r.M.Meter.Energy() })
	r.M.K.Schedule(r.measTo, func() { e1 = r.M.Meter.Energy() })
	r.M.K.Drain()
	return Result{
		Measurement: metrics.Measurement{
			Ops:     r.ops,
			Window:  r.measTo - r.measFrom,
			Energy:  e1.Sub(e0),
			BaseGHz: r.M.Config().Power.BaseFreqGHz,
		},
		Latency: r.lat,
	}
}

// Definition describes one workload: a (system, configuration) label,
// its thread count and the body that spawns its threads — a Table 3
// cell, a compiled scenario point or one of the stress tests.
type Definition struct {
	System  string
	Config  string
	Threads int
	// Build spawns the workload's threads against the runner using
	// locks from the factory.
	Build func(r *Runner, f workload.LockFactory)
}

// ID returns "System/Config", the key used by the experiment harness.
func (d Definition) ID() string { return fmt.Sprintf("%s/%s", d.System, d.Config) }

// Run executes the definition with the given lock factory and window.
func (d Definition) Run(mc machine.Config, f workload.LockFactory, warmup, duration sim.Cycles) Result {
	r := NewRunner(mc, warmup, duration)
	d.Build(r, f)
	return r.Finish()
}

// Job is one sweep cell: a system definition executed under one lock
// factory on its own simulated machine.
type Job struct {
	Def      Definition
	Factory  workload.LockFactory
	Warmup   sim.Cycles
	Duration sim.Cycles
	// Machine optionally overrides the machine configuration template;
	// its Seed is replaced with the cell's derived seed. Nil means the
	// default Xeon.
	Machine *machine.Config
}

// RunJobs fans the jobs out as a parallel sweep grid — one simulated
// machine per job, seeded with sweep.CellSeed(o.Seed, job index) — and
// returns the results in job order. Output is identical for any
// worker count.
func RunJobs(o sweep.Options, jobs []Job) []Result {
	return sweep.Run(o, len(jobs), func(c sweep.Cell) Result {
		j := jobs[c.Index]
		mc := machine.DefaultConfig(c.Seed)
		if j.Machine != nil {
			mc = *j.Machine
			mc.Seed = c.Seed
		}
		return j.Def.Run(mc, j.Factory, j.Warmup, j.Duration)
	})
}

// Block deschedules the thread for roughly d cycles, modelling
// blocking I/O: the hardware context is released to the OS until the
// wakeup fires. Compiled scenarios use it for SSD reads and bursty
// producers.
func Block(t *machine.Thread, d sim.Cycles) {
	th := t.Thread
	s := th.Scheduler()
	k := s.Kernel()
	k.Schedule(d, func() { s.Unblock(th, 0) })
	th.Block()
}
