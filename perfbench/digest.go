package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"lockin/internal/results"
)

// pinSeed is the seed the pinned digests are taken at. Every run, after
// its timed window, reproduces its workload's reference output at this
// seed and compares it with digests.json, so a change that alters
// simulated output fails the benchmark whatever seed it runs at. A
// deliberate re-baseline re-pins digests.json in its own change.
const pinSeed = 1

//go:embed digests.json
var pinnedJSON []byte

// pinned maps workload name to the digest of its reference output at
// pinSeed.
func pinned() (map[string]string, error) {
	m := map[string]string{}
	if err := json.Unmarshal(pinnedJSON, &m); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return m, nil
}

// checkPinned compares a reference digest at pinSeed with the pinned
// one, counting a mismatch as a failed operation.
func checkPinned(r *rec, workload, got string) {
	m, err := pinned()
	if err != nil {
		r.fail(err)
		return
	}
	if want := m[workload]; got != want {
		r.fail(fmt.Errorf("%s: output digest at seed %d is %s, pinned %q (digests.json)", workload, pinSeed, got, want))
	}
}

// digest hashes runs' canonical encoding, leaving out what does not
// identify the output: Meta.Perf (wall-clock provenance), Version (the
// build) and Workers (results are identical for any worker count).
func digest(runs ...*results.Run) (string, error) {
	h := sha256.New()
	for _, r := range runs {
		c := *r
		c.Meta.Perf = nil
		c.Meta.Version = ""
		c.Meta.Workers = 0
		b, err := results.Encode(&c)
		if err != nil {
			return "", err
		}
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}
