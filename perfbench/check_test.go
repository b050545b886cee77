package main

import (
	"runtime"
	"testing"

	"rsr/internal/sampling"
)

// TestPerturbedExpectedValueIsCaught runs one real sampled operation at the
// default seed, checks that it matches its recorded output, then perturbs
// that recording by one cycle and checks that the same output now fails.
func TestPerturbedExpectedValueIsCaught(t *testing.T) {
	exp, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	const seed = 1
	e, err := setupSampled(exp, seed)
	if err != nil {
		t.Fatal(err)
	}
	se := e.(*sampledEnv)
	pr := se.progs[0]
	res, err := sampling.RunSampledOpts(pr.p, sampling.DefaultMachine(), pr.reg, total, se.seeds[0], rbp20,
		sampling.Options{Shards: runtime.GOMAXPROCS(0)})
	if err != nil {
		t.Fatal(err)
	}
	p := &pass{Counters: map[string]uint64{}, Runs: map[string]*sampling.RunResult{}}
	key := sampledKey(pr.name, 0)
	p.addRun(key, res, pr.trueIPC, 0)

	clean := &run{w: workloads["sampled"], exp: exp, seed: seed}
	clean.checkPass(p, nil)
	if clean.attempted != 1 || clean.failed != 0 {
		t.Fatalf("recorded output: attempted %d, failed %d (%v), want 1 and 0", clean.attempted, clean.failed, clean.problems)
	}

	w, ok := exp.ops["sampled"][seed][key]
	if !ok {
		t.Fatalf("no recorded output for %s at seed %d", key, seed)
	}
	w.cycles++
	exp.ops["sampled"][seed][key] = w
	perturbed := &run{w: workloads["sampled"], exp: exp, seed: seed}
	perturbed.checkPass(p, nil)
	if perturbed.failed != 1 || len(perturbed.problems) != 1 {
		t.Fatalf("perturbed output: failed %d (%v), want exactly one failure", perturbed.failed, perturbed.problems)
	}
}
