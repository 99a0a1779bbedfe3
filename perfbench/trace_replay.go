package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"ecsdns"
	"ecsdns/internal/cachesim"
	"ecsdns/internal/ecscache"
	"ecsdns/internal/traces"
)

// traceReplay times each layer of the simulation stack in-process on
// the workload's seed: trace generation, the three cache models over
// one all-names trace, and the two experiments end to end through
// ecsdns.Run, whose reports must match what ecslab prints.
func traceReplay(e env) (*run, error) {
	r := newTracedRun()
	reference, err := os.ReadFile(filepath.Join(e.root, referenceFile))
	if err != nil {
		return nil, err
	}
	cfg := traces.DefaultAllNames
	cfg.Seed = e.seed
	t0 := time.Now()
	tr := traces.GenerateAllNames(cfg)
	r.setLayer("traces.generate_s", time.Since(t0).Seconds())
	recs := tr.Records
	perRec := func(fn func()) float64 {
		t := time.Now()
		fn()
		return float64(time.Since(t)) / float64(len(recs))
	}
	r.setLayer("cachesim.bounded_replay_ns_per_rec", perRec(func() { cachesim.BoundedReplay(recs, 8192, true) }))
	r.setLayer("cachesim.blowup_ns_per_rec", perRec(func() { cachesim.Blowup(recs, 0) }))
	// ext_scale's real-cache configuration at its 10x population.
	r.setLayer("cachesim.cache_replay_ns_per_rec", perRec(func() {
		cachesim.CacheReplay(recs, ecscache.Config{Mode: ecscache.HonorScope, ClampScopeToSource: true, Shards: 8, MaxEntries: 820})
	}))

	ecfg := ecsdns.DefaultConfig()
	ecfg.Seed = e.seed
	var out string
	for _, id := range replayExperiments {
		t := time.Now()
		rep, err := ecsdns.Run(id, ecfg)
		if err != nil {
			return nil, err
		}
		r.setLayer("core."+id+"_s", time.Since(t).Seconds())
		out += fmt.Sprintln(rep)
	}
	r.res.Attempted = 1
	if problems := checkReplay(out, e.seed, string(reference)); len(problems) > 0 {
		r.res.Failed = 1
		r.problems = append(r.problems, problems...)
	}
	return r, nil
}
