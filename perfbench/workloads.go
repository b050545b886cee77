package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"rsr/internal/experiments"
	"rsr/internal/prog"
	"rsr/internal/regimen"
	"rsr/internal/sampling"
	"rsr/internal/warmup"
	"rsr/internal/workload"
)

// op is the checked output of one timed operation.
type op struct {
	Key    string
	IPC    float64
	Cycles uint64
	Instrs uint64 // simulated instructions: functional and detailed, profiling included
	Work   warmup.Work

	// Scoring against the true IPC; true-IPC jobs themselves are not scored.
	Scored  bool
	TrueIPC float64
	HasCI   bool
	Covered bool

	Latency time.Duration
}

// pass is one execution of a workload's whole operation set.
type pass struct {
	Ops      []op
	Wall     time.Duration
	Alloc    uint64            // heap bytes allocated during the pass
	Counters map[string]uint64 // deterministic counters, compared across passes

	// fig7-fabric only.
	Fabric *fabricStats
	// strategies only: summed Strategy.Run time per strategy.
	StrategyTime map[string]time.Duration
	// Sampled results by op key, for the traced run's equality checks.
	Runs map[string]*sampling.RunResult
}

// env is a workload's set-up state: what setup_s times.
type env interface {
	// pass runs the operation set once.
	pass() (*pass, error)
	// replay lists the sampled runs the traced run repeats through
	// sampling.RunSampledMethod, keyed like the ops they reproduce.
	replay() []replayRun
	close()
}

// bench is one benchmark workload.
type bench struct {
	name  string
	setup func(exp *expected, seed int64) (env, error)
	// freshPerPass sets up a new env for every pass (the fabric's result
	// cache would otherwise serve the second pass).
	freshPerPass bool
	// opsPerPass is the number of operations in one pass.
	opsPerPass int
	// minPasses is the fewest passes an untraced run makes, whatever
	// --seconds says: at least two, so the determinism check has a pair,
	// and 90 operations. fig7-fabric takes three because its host time
	// spreads most from run to run: its 15 s passes are long enough for
	// the host's speed to drift within one.
	minPasses int
	// tracedReps is the minimum number of repetitions in a traced run;
	// sampled takes three so its shard speedup comes with a spread.
	tracedReps int
}

var workloads = map[string]*bench{
	"sampled":     {name: "sampled", setup: setupSampled, opsPerPass: 9 * sampledPlacements, minPasses: 2, tracedReps: 3},
	"fig7-fabric": {name: "fig7-fabric", setup: setupFabric, freshPerPass: true, opsPerPass: 90, minPasses: 3, tracedReps: 1},
	"strategies":  {name: "strategies", setup: setupStrategies, opsPerPass: 45, minPasses: 2, tracedReps: 1},
}

// tailPct is the latency percentile reported as run_tail_ms: the highest
// whole percentile with at least ten samples beyond it in a run of
// minPasses passes. It is fixed per workload, so runs that fit more passes
// into --seconds still report the same percentile.
func (b *bench) tailPct() int {
	n := b.minPasses * b.opsPerPass
	return 100 * (n - 10) / n
}

// program is one synthetic SPEC-like program with its per-program regimen.
type program struct {
	name    string
	p       *prog.Program
	reg     sampling.Regimen
	trueIPC float64
}

func buildPrograms(exp *expected) ([]program, error) {
	var out []program
	for _, w := range workload.All() {
		reg, err := experiments.RegimenForStrict(w.Name)
		if err != nil {
			return nil, err
		}
		// Missing only while recording; the run refuses to measure then.
		t := exp.trueIPC[w.Name]
		out = append(out, program{name: w.Name, p: w.Build(), reg: reg, trueIPC: t.ipc})
	}
	return out, nil
}

// rbp20 is the warm-up of the sampled and strategies workloads: reverse
// state reconstruction of caches and predictor at 20%.
var rbp20 = warmup.Spec{Kind: warmup.KindReverse, Percent: 20, Cache: true, BPred: true}

// sampledPlacements is how many cluster placements, all derived from the
// run's seed, each program is estimated at in one sampled pass. Nine
// estimates per seed make ci_coverage_pct move in 11-point steps between
// seeds; 54 keep its seed-to-seed spread small.
const sampledPlacements = 6

// placements derives the sampled workload's placement seeds from seed.
func placements(seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int64, sampledPlacements)
	for i := range out {
		out[i] = rng.Int63()
	}
	return out
}

// sampledEnv runs one R$BP (20%) estimate per program and placement the way
// `rsr run` does by default: sampling.RunSampledOpts with GOMAXPROCS shards.
type sampledEnv struct {
	progs []program
	seeds []int64
}

func setupSampled(exp *expected, seed int64) (env, error) {
	progs, err := buildPrograms(exp)
	if err != nil {
		return nil, err
	}
	return &sampledEnv{progs: progs, seeds: placements(seed)}, nil
}

func (e *sampledEnv) close() {}

func sampledKey(prog string, k int) string { return fmt.Sprintf("%s@%d", prog, k) }

func (e *sampledEnv) pass() (*pass, error) {
	shards := runtime.GOMAXPROCS(0)
	return timePass(func(p *pass) error {
		for k, s := range e.seeds {
			for _, pr := range e.progs {
				t0 := time.Now()
				r, err := sampling.RunSampledOpts(pr.p, sampling.DefaultMachine(), pr.reg, total, s, rbp20,
					sampling.Options{Shards: shards})
				if err != nil {
					return fmt.Errorf("%s: %w", pr.name, err)
				}
				key := sampledKey(pr.name, k)
				p.addRun(key, r, pr.trueIPC, time.Since(t0))
			}
		}
		return nil
	})
}

func (e *sampledEnv) replay() []replayRun {
	var out []replayRun
	for k, s := range e.seeds {
		for _, pr := range e.progs {
			out = append(out, replayRun{key: sampledKey(pr.name, k), prog: pr, seed: s, spec: rbp20})
		}
	}
	return out
}

// strategiesEnv runs every registered sampling strategy on every program at
// R$BP (20%), scored against the recorded true IPCs.
type strategiesEnv struct {
	progs []program
	seed  int64
}

func setupStrategies(exp *expected, seed int64) (env, error) {
	progs, err := buildPrograms(exp)
	if err != nil {
		return nil, err
	}
	return &strategiesEnv{progs: progs, seed: seed}, nil
}

func (e *strategiesEnv) close() {}

func strategyKey(prog, strategy string) string { return prog + "/" + strategy }

func (e *strategiesEnv) pass() (*pass, error) {
	shards := runtime.GOMAXPROCS(0)
	return timePass(func(p *pass) error {
		p.StrategyTime = map[string]time.Duration{}
		for _, pr := range e.progs {
			params := regimen.Params{
				Program: pr.p,
				Machine: sampling.DefaultMachine(),
				Regimen: pr.reg,
				Total:   total,
				Seed:    e.seed,
				Warmup:  rbp20,
				Shards:  shards,
			}
			for _, s := range regimen.All() {
				t0 := time.Now()
				out, err := s.Run(params)
				if err != nil {
					return fmt.Errorf("%s/%s: %w", pr.name, s.Name(), err)
				}
				lat := time.Since(t0)
				p.StrategyTime[s.Name()] += lat
				var cycles uint64
				for _, m := range out.Regions {
					cycles += m.Result.Cycles
				}
				// SimPoint is a point estimator: it has no interval to cover.
				hasCI := s.Name() != (regimen.SimPoint{}).Name()
				p.Ops = append(p.Ops, op{
					Key:     strategyKey(pr.name, s.Name()),
					IPC:     out.Estimate.IPC,
					Cycles:  cycles,
					Instrs:  out.FuncInstructions + out.Plan.ProfileInstructions,
					Work:    out.Work,
					Scored:  true,
					TrueIPC: pr.trueIPC,
					HasCI:   hasCI,
					Covered: hasCI && out.Estimate.Confident(pr.trueIPC),
					Latency: lat,
				})
				p.Counters["regimen.detailed_instr"] += out.HotInstructions
				p.Counters["regimen.profile_instr"] += out.Plan.ProfileInstructions
			}
		}
		return nil
	})
}

// replay repeats the stratified-uniform arm, the one strategy that runs
// through the sampling package's entry points and so can be wrapped.
func (e *strategiesEnv) replay() []replayRun {
	var out []replayRun
	for _, pr := range e.progs {
		out = append(out, replayRun{key: strategyKey(pr.name, (regimen.StratifiedUniform{}).Name()), prog: pr, seed: e.seed, spec: rbp20})
	}
	return out
}

// timePass runs body as one pass, recording its wall time, heap allocation
// and the deterministic counters summed over its ops.
func timePass(body func(p *pass) error) (*pass, error) {
	p := &pass{Counters: map[string]uint64{}, Runs: map[string]*sampling.RunResult{}}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	err := body(p)
	p.Wall = time.Since(t0)
	runtime.ReadMemStats(&after)
	p.Alloc = after.TotalAlloc - before.TotalAlloc
	if err != nil {
		return nil, err
	}
	for _, o := range p.Ops {
		p.Counters["ops"]++
		p.Counters["sim.instr"] += o.Instrs
		p.Counters["ooo.cycles"] += o.Cycles
		p.Counters["warmup.warm_ops"] += o.Work.WarmOps
		p.Counters["warmup.logged_records"] += o.Work.LoggedRecords
		p.Counters["core.recon_scanned"] += o.Work.ReconScanned
		p.Counters["core.recon_applied"] += o.Work.ReconApplied
	}
	return p, nil
}

// addRun records one sampled run as an op scored against trueIPC.
func (p *pass) addRun(key string, r *sampling.RunResult, trueIPC float64, lat time.Duration) {
	o := opOfRun(key, r)
	o.Scored, o.TrueIPC, o.HasCI = true, trueIPC, true
	o.Covered = r.ConfidenceContains(trueIPC)
	o.Latency = lat
	p.Ops = append(p.Ops, o)
	p.Runs[key] = r
	var br, mis uint64
	for _, c := range r.Clusters {
		br += c.Result.Branches
		mis += c.Result.Mispredicts
	}
	p.Counters["bpred.branches"] += br
	p.Counters["bpred.mispredicts"] += mis
}

func opOfRun(key string, r *sampling.RunResult) op {
	var cycles uint64
	for _, c := range r.Clusters {
		cycles += c.Result.Cycles
	}
	return op{Key: key, IPC: r.IPCEstimate(), Cycles: cycles, Instrs: r.FuncInstructions, Work: r.Work}
}
