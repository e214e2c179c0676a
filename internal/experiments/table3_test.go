package experiments_test

// Importing package scenario here links it into this package's test
// binary: the bundled specs register, so every test of the package —
// internal ones included — can run fig13-15, whose Table 3 cells are
// planes of those specs.

import (
	"fmt"
	"hash/fnv"
	"testing"

	"lockin/internal/experiments"
	"lockin/internal/scenario"
)

// TestTable3Planes checks, without simulating, that every Table 3 cell
// resolves to a plane of a bundled spec that runs on the default Xeon
// (fig13-15 run every cell there) with the paper's thread count.
func TestTable3Planes(t *testing.T) {
	cs, err := scenario.Bundled()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]*scenario.Compiled{}
	for _, c := range cs {
		byName[c.Spec.Name] = c
	}
	defs, specs := experiments.Systems(), experiments.Table3Specs()
	// HamsterDB, Kyoto, Memcached, MySQL, RocksDB, SQLite 16/32/64 CON.
	threads := []int{4, 4, 4, 4, 4, 4, 8, 8, 8, 64, 64, 12, 12, 12, 16, 32, 64}
	if len(defs) != len(threads) || len(specs) != len(threads) {
		t.Fatalf("%d cells over %d specs, want %d", len(defs), len(specs), len(threads))
	}
	for i, d := range defs {
		c := byName[specs[i]]
		if c == nil {
			t.Fatalf("%s: no bundled spec %q", d.ID(), specs[i])
		}
		if m := c.Spec.Machine.Topology; m != "" && m != "xeon" {
			t.Fatalf("%s: spec %s runs on %q, want the default Xeon", d.ID(), specs[i], m)
		}
		if d.Threads != threads[i] {
			t.Fatalf("%s: %d threads, want %d", d.ID(), d.Threads, threads[i])
		}
	}
}

// TestSystemsFiguresBytesPinned pins the rendered quick output of
// fig13-15 (tables and notes) at two seeds. The hashes were recorded
// when the Table 3 cells were still hand-coded Go profiles; every
// quick cell is a plane that reproduces its profile bit for bit.
func TestSystemsFiguresBytesPinned(t *testing.T) {
	want := map[string]uint64{
		"fig13/seed42": 0x17ead89b327aaab3,
		"fig13/seed1":  0x1f83351ee0185579,
		"fig14/seed42": 0x39e3f41c83c9e181,
		"fig14/seed1":  0xa2ab53739484f9c8,
		"fig15/seed42": 0x323704cb30a9d768,
		"fig15/seed1":  0x44e67704df22834d,
	}
	for _, id := range []string{"fig13", "fig14", "fig15"} {
		for _, seed := range []int64{42, 1} {
			name := fmt.Sprintf("%s/seed%d", id, seed)
			t.Run(name, func(t *testing.T) {
				e, err := experiments.Find(id)
				if err != nil {
					t.Fatal(err)
				}
				h := fnv.New64a()
				tabs := e.Run(experiments.Options{Seed: seed, Scale: 0.5, Quick: true, Workers: 2})
				for _, tab := range tabs {
					h.Write([]byte(tab.String()))
					h.Write([]byte{'\n'})
				}
				if got := h.Sum64(); got != want[name] {
					t.Fatalf("rendered output hashes to %#x, want %#x:\n%s", got, want[name], tabs[0])
				}
			})
		}
	}
}
