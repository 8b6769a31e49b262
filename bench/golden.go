package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"
)

// goldenSeeds are the seeds the golden file pins: the seed the benchmark
// was written at and a held-out one.
var goldenSeeds = []uint64{1, 2}

// golden maps workload → seed → the SHA-256 of the workload's canonical
// output at fullSize: the Execute bytes for matrix and fuzz, the state
// hash, packet count and failure count for pop, and every client's first
// minCold cold results for the service.
type golden map[string]map[string]string

func (g golden) lookup(workload string, seed uint64) (string, bool) {
	d, ok := g[workload][strconv.FormatUint(seed, 10)]
	return d, ok
}

func loadGolden(path string) (golden, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var g golden
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return g, nil
}

// updateGolden recomputes every digest with one request per workload and
// seed and rewrites the golden file. Only a change that means to alter
// result bytes may do this, and it must say so.
func updateGolden() error {
	g := golden{}
	for _, w := range workloads {
		g[w.name] = map[string]string{}
		for _, seed := range goldenSeeds {
			res, dig, err := oneRequest(w, options{seed: seed, size: fullSize}, stateDir)
			if err != nil {
				return err
			}
			if !res.Correct {
				return fmt.Errorf("%s seed %d: run failed its checks", w.name, seed)
			}
			g[w.name][strconv.FormatUint(seed, 10)] = dig
			fmt.Fprintf(os.Stderr, "golden %s seed %d: %s\n", w.name, seed, dig)
		}
	}
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldenPath, append(data, '\n'), 0o644)
}

// oneRequest sets w up in a fresh state directory and measures the least
// it can: one request, or the service's shortest loop.
func oneRequest(w workload, o options, stateDir string) (result, string, error) {
	if err := os.MkdirAll(stateDir, 0o755); err != nil {
		return result{}, "", err
	}
	dir, err := os.MkdirTemp(stateDir, w.name+"-")
	if err != nil {
		return result{}, "", err
	}
	defer os.RemoveAll(dir)
	inst, err := w.open(o, dir)
	if err != nil {
		return result{}, "", err
	}
	m := inst.measure(0)
	if err := inst.close(); err != nil {
		return result{}, "", err
	}
	return newResult(m.tally, nil, nil), m.digest, nil
}
