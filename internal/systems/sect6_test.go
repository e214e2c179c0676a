package systems_test

import (
	"testing"

	"lockin/internal/core"
	"lockin/internal/experiments"
	"lockin/internal/machine"
	"lockin/internal/systems"
	"lockin/internal/workload"

	// Register the bundled specs whose planes are the Table 3 cells.
	_ "lockin/internal/scenario"
)

// The §6 claim tests run on the Table 3 cells as experiments.Systems
// resolves them: planes of the bundled scenario specs.

const (
	testWarmup = 300_000
	testDur    = 8_000_000
)

// table3Cell returns the Table 3 definition with the given ID.
func table3Cell(t *testing.T, id string) systems.Definition {
	t.Helper()
	for _, d := range experiments.Systems() {
		if d.ID() == id {
			return d
		}
	}
	t.Fatalf("no Table 3 cell %q", id)
	return systems.Definition{}
}

func runDef(d systems.Definition, k core.Kind, seed int64) systems.Result {
	return d.Run(machine.DefaultConfig(seed), workload.FactoryFor(k), testWarmup, testDur)
}

func TestAllDefinitionsProduceWork(t *testing.T) {
	for _, d := range experiments.Systems() {
		t.Run(d.ID(), func(t *testing.T) {
			if testing.Short() && d.Threads > 16 {
				t.Skip("short mode")
			}
			r := runDef(d, core.KindMutex, 1)
			if r.Ops == 0 {
				t.Fatal("no operations")
			}
			if r.Latency.Count() == 0 {
				t.Fatal("no latencies recorded")
			}
			if r.Power().Total < 50 {
				t.Fatalf("implausible power %.1f W", r.Power().Total)
			}
		})
	}
}

func TestSeventeenConfigs(t *testing.T) {
	defs := experiments.Systems()
	if n := len(defs); n != 17 {
		t.Fatalf("Table 3 has 17 cells, got %d", n)
	}
	seen := map[string]bool{}
	for _, d := range defs {
		if seen[d.ID()] {
			t.Fatalf("duplicate definition %s", d.ID())
		}
		seen[d.ID()] = true
	}
}

func TestHamsterDBSpinBeatsSleep(t *testing.T) {
	// §6.1: on HamsterDB, avoiding sleeping improves throughput
	// substantially (TICKET 1.26-1.85x over MUTEX).
	d := table3Cell(t, "HamsterDB/WT")
	mutex := runDef(d, core.KindMutex, 1)
	ticket := runDef(d, core.KindTicket, 1)
	ratio := ticket.Throughput() / mutex.Throughput()
	if ratio < 1.05 {
		t.Fatalf("TICKET/MUTEX throughput ratio %.2f, want >1 (paper: 1.38)", ratio)
	}
}

func TestMySQLTicketCollapsesUnderOversubscription(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	d := table3Cell(t, "MySQL/MEM") // 64 threads on 40 contexts
	mc := machine.DefaultConfig(1)
	f := func(k core.Kind) systems.Result {
		return d.Run(mc, workload.FactoryFor(k), testWarmup, 60_000_000)
	}
	mutex := f(core.KindMutex)
	ticket := f(core.KindTicket)
	ratio := ticket.Throughput() / mutex.Throughput()
	if ratio > 0.6 {
		t.Fatalf("TICKET/MUTEX ratio %.2f under oversubscription, want collapse (paper: 0.01)", ratio)
	}
}

func TestRocksDBLockInsensitive(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	// §6.1: RocksDB's write queue means the lock choice barely matters.
	d := table3Cell(t, "RocksDB/WT/RD")
	mutex := runDef(d, core.KindMutex, 1)
	mutexee := runDef(d, core.KindMutexee, 1)
	ratio := mutexee.Throughput() / mutex.Throughput()
	if ratio < 0.75 || ratio > 1.6 {
		t.Fatalf("MUTEXEE/MUTEX ratio %.2f on RocksDB, want ≈1 (paper: 1.02-1.11)", ratio)
	}
}

func TestDeterministicSystemRuns(t *testing.T) {
	d := table3Cell(t, "Memcached/SET/GET")
	a := runDef(d, core.KindMutexee, 9)
	b := runDef(d, core.KindMutexee, 9)
	if a.Ops != b.Ops {
		t.Fatalf("nondeterministic: %d vs %d ops", a.Ops, b.Ops)
	}
}
