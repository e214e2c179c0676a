package experiments

import (
	"fmt"

	"lockin/internal/core"
	"lockin/internal/machine"
	"lockin/internal/metrics"
	"lockin/internal/sim"
	"lockin/internal/sweep"
	"lockin/internal/systems"
	"lockin/internal/workload"
)

// systemKinds are the three locks shown in Figures 13-15.
var systemKinds = []core.Kind{core.KindMutex, core.KindTicket, core.KindMutexee}

// table3Entry is one (system, configuration) cell of the paper's
// Table 3: a plane of a bundled scenario spec, i.e. one fixed value
// for each of the spec's non-lock sweep axes.
type table3Entry struct {
	system, config string
	spec           string
	at             map[string]any
}

// table3 lists the 17 cells of Figures 13-14 in the paper's order.
// Memcached SET/GET is the 8-thread plane of the oversubscription
// spec; SET and GET are uniform-hashing planes of the GET-heavy spec.
var table3 = []table3Entry{
	{"HamsterDB", "WT", "hamsterdb", map[string]any{"read": 10}},
	{"HamsterDB", "WT/RD", "hamsterdb", map[string]any{"read": 50}},
	{"HamsterDB", "RD", "hamsterdb", map[string]any{"read": 90}},
	{"Kyoto", "CACHE", "kyoto", map[string]any{"cs": 3200}},
	{"Kyoto", "HT DB", "kyoto", map[string]any{"cs": 3600}},
	{"Kyoto", "B-TREE", "kyoto", map[string]any{"cs": 4500}},
	{"Memcached", "SET", "memcached_get", map[string]any{"read": 10, "skew": 0.0}},
	{"Memcached", "SET/GET", "memcached", map[string]any{"oversub": 0.2}},
	{"Memcached", "GET", "memcached_get", map[string]any{"read": 90, "skew": 0.0}},
	{"MySQL", "MEM", "mysql_mem", map[string]any{"oversub": 1.6}},
	{"MySQL", "SSD", "mysql_ssd", map[string]any{"oversub": 1.6}},
	{"RocksDB", "WT", "rocksdb", map[string]any{"read": 10}},
	{"RocksDB", "WT/RD", "rocksdb", map[string]any{"read": 50}},
	{"RocksDB", "RD", "rocksdb", map[string]any{"read": 90}},
	{"SQLite", "16 CON", "sqlite", map[string]any{"threads": 16}},
	{"SQLite", "32 CON", "sqlite", map[string]any{"threads": 32}},
	{"SQLite", "64 CON", "sqlite", map[string]any{"threads": 64}},
}

// Systems resolves the 17 (system, configuration) cells of Table 3
// from their bundled scenario specs, in the paper's order. The specs
// register when package scenario is linked in (lockin and every
// binary import it); Systems panics if they are missing.
func Systems() []systems.Definition { return resolveTable3(table3) }

// resolveTable3 turns entries into runnable definitions through the
// registered scenarios' planes, labelled with the entries' system and
// configuration.
func resolveTable3(entries []table3Entry) []systems.Definition {
	defs := make([]systems.Definition, len(entries))
	for i, e := range entries {
		x, err := Find("scenario:" + e.spec)
		if err != nil || x.Plane == nil {
			panic(fmt.Sprintf("experiments: Table 3 cell %s/%s needs scenario:%s registered (import lockin/internal/scenario)", e.system, e.config, e.spec))
		}
		d, err := x.Plane(e.at)
		if err != nil {
			panic(fmt.Sprintf("experiments: Table 3 cell %s/%s: %v", e.system, e.config, err))
		}
		d.System, d.Config = e.system, e.config
		defs[i] = d
	}
	return defs
}

// sysResult caches one (definition, lock) run.
type sysResult struct {
	def  systems.Definition
	kind core.Kind
	res  systems.Result
}

// runSystems executes the given Table 3 cells under the three locks,
// one sweep cell per (definition, lock) pair.
func runSystems(o Options, entries []table3Entry) []sysResult {
	var jobs []systems.Job
	var cells []sysResult
	for _, d := range resolveTable3(entries) {
		// Oversubscribed systems need several timeslice rotations for the
		// spinlock livelock to express itself.
		dur := sim.Cycles(10_000_000)
		if d.Threads > 32 {
			dur = 60_000_000
		}
		for _, k := range systemKinds {
			jobs = append(jobs, systems.Job{
				Def:      d,
				Factory:  workload.FactoryFor(k),
				Warmup:   o.dur(300_000),
				Duration: o.dur(dur),
			})
			cells = append(cells, sysResult{def: d, kind: k})
		}
	}
	for i, res := range systems.RunJobs(o.sweep(), jobs) {
		cells[i].res = res
	}
	return cells
}

// fig13Entries are the cells of Figures 13-14: HamsterDB WT, Memcached
// SET/GET and SQLite 64 CON in quick mode, all 17 otherwise.
func fig13Entries(o Options) []table3Entry {
	if o.Quick {
		return []table3Entry{table3[0], table3[7], table3[16]}
	}
	return table3
}

// fig15Entries are the cells of Figure 15: HamsterDB RD and SQLite 64
// CON in quick mode, otherwise every HamsterDB, Memcached, MySQL and
// SQLite configuration.
func fig15Entries(o Options) []table3Entry {
	if o.Quick {
		return []table3Entry{table3[2], table3[16]}
	}
	var out []table3Entry
	for _, e := range table3 {
		switch e.system {
		case "HamsterDB", "Memcached", "MySQL", "SQLite":
			out = append(out, e)
		}
	}
	return out
}

// normTable renders results normalized to MUTEX per configuration.
func normTable(title string, results []sysResult, metric func(systems.Result) float64) *metrics.Table {
	t := metrics.NewTable(title, "system", "config", "lock", "value", "vs MUTEX")
	base := map[string]float64{}
	for _, r := range results {
		if r.kind == core.KindMutex {
			base[r.def.ID()] = metric(r.res)
		}
	}
	var sums = map[core.Kind]float64{}
	var counts = map[core.Kind]int{}
	for _, r := range results {
		b := base[r.def.ID()]
		v := metric(r.res)
		n := 0.0
		if b != 0 {
			n = v / b
		}
		sums[r.kind] += n
		counts[r.kind]++
		t.AddRow(r.def.System, r.def.Config, r.kind.String(), v, n)
	}
	for _, k := range systemKinds {
		if counts[k] > 0 {
			t.AddNote("%s average vs MUTEX: %.2f", k, sums[k]/float64(counts[k]))
		}
	}
	return t
}

func init() {
	register(Experiment{
		ID:        "fig13",
		Aggregate: true,
		Title:     "Normalized throughput of the six systems with different locks",
		Paper:     "avg: TICKET 1.06x, MUTEXEE 1.26x over MUTEX; TICKET collapses on MySQL (0.01-0.16x) and SQLite 64 CON (0.25x)",
		Run: func(o Options) []*metrics.Table {
			rs := runSystems(o, fig13Entries(o))
			return []*metrics.Table{normTable("Figure 13 — normalized throughput (higher is better)",
				rs, func(r systems.Result) float64 { return r.Throughput() })}
		},
	})

	register(Experiment{
		ID:        "fig14",
		Aggregate: true,
		Title:     "Normalized energy efficiency (TPP) of the six systems",
		Paper:     "avg: TICKET 1.05x, MUTEXEE 1.28x over MUTEX; improvements driven by throughput",
		Run: func(o Options) []*metrics.Table {
			rs := runSystems(o, fig13Entries(o))
			return []*metrics.Table{normTable("Figure 14 — normalized TPP (higher is better)",
				rs, func(r systems.Result) float64 { return r.TPP() })}
		},
	})

	register(Experiment{
		ID:        "fig15",
		Aggregate: true,
		Title:     "Normalized 99th-percentile latency of four systems",
		Paper:     "mostly better throughput → lower tail; HamsterDB RD: MUTEXEE ≈19x tail of MUTEX; TICKET terrible when oversubscribed",
		Run: func(o Options) []*metrics.Table {
			rs := runSystems(o, fig15Entries(o))
			return []*metrics.Table{normTable("Figure 15 — normalized p99 latency (lower is better)",
				rs, func(r systems.Result) float64 { return float64(r.Latency.Percentile(0.99)) })}
		},
	})

	register(Experiment{
		ID:    "ablation",
		Title: "MUTEXEE design ablations (single lock, 20 threads)",
		Paper: "§5.1 sensitivity: ≥4000-cycle spin crucial for throughput; unlock user-space wait crucial for power; mbar vs pause worth ≈4 W on TICKET",
		Run:   runAblation,
	})
}

// runAblation quantifies the MUTEXEE design choices, one sweep cell per
// variant.
func runAblation(o Options) []*metrics.Table {
	t := metrics.NewTable("MUTEXEE and spin-policy ablations (20 threads, 2000-cycle CS)",
		"variant", "throughput(Kacq/s)", "TPP(Kacq/J)", "power(W)")
	variants := []struct {
		name string
		f    workload.LockFactory
	}{
		{"MUTEXEE (default)", workload.FactoryFor(core.KindMutexee)},
		{"MUTEXEE spin=500", mutexeeVariant(func(o *core.MutexeeOptions) { o.SpinLock = 500 })},
		{"MUTEXEE no unlock-wait", mutexeeVariant(func(o *core.MutexeeOptions) { o.UnlockWait = false })},
		{"MUTEXEE no adaptation", mutexeeVariant(func(o *core.MutexeeOptions) { o.Adaptive = false })},
		{"MUTEX (reference)", workload.FactoryFor(core.KindMutex)},
		{"TICKET mbar", workload.FactoryFor(core.KindTicket)},
		{"TICKET pause", func(m *machine.Machine) core.Lock { return core.NewTicket(m, machine.WaitPause) }},
	}
	g := o.grid()
	for _, v := range variants {
		v := v
		g.Add(func(c sweep.Cell) []sweep.Row {
			cfg := workload.DefaultMicroConfig(c.Seed)
			cfg.Factory = v.f
			cfg.Threads = 20
			cfg.CS = 2000
			cfg.Outside = 500
			cfg.Warmup = o.dur(300_000)
			cfg.Duration = o.dur(15_000_000)
			r := workload.RunMicro(cfg)
			return []sweep.Row{{v.name, r.Throughput() / 1e3, r.TPP() / 1e3, r.Power().Total}}
		})
	}
	g.Into(t)
	return []*metrics.Table{t}
}

func mutexeeVariant(mod func(*core.MutexeeOptions)) workload.LockFactory {
	return func(m *machine.Machine) core.Lock {
		opts := core.DefaultMutexeeOptions()
		mod(&opts)
		return core.NewMutexee(m, opts)
	}
}
