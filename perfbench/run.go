package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"rsr/internal/obs"
	"rsr/internal/regimen"
	"rsr/internal/sampling"
	"rsr/internal/stats"
)

// setupReps is how many set-ups an untraced run times before its first
// pass; setup_s is the median over these and any per-pass set-ups.
const setupReps = 21

// traceCapacity bounds the span ring. Only the first repetition of a
// traced run records spans (about 16k on fig7-fabric), so the ring does not
// fill however many repetitions a run fits; a run that overflows it fails.
const traceCapacity = 1 << 17

// run is one benchmark invocation.
type run struct {
	w      *bench
	exp    *expected
	seed   int64
	budget time.Duration

	attempted, failed int
	problems          []string
}

func (r *run) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// setup times one set-up of the workload's env. It collects the heap
// first, so every set-up starts from the same state rather than from
// whatever garbage the previous pass left.
func (r *run) setup() (env, time.Duration, error) {
	runtime.GC()
	t0 := time.Now()
	e, err := r.w.setup(r.exp, r.seed)
	return e, time.Since(t0), err
}

// checkPass compares a pass's outputs with the recorded ones, or, for a
// seed with no recording, with the first pass of the run. Every mismatch
// fails its op. It also requires the deterministic counters to repeat.
func (r *run) checkPass(p, first *pass) {
	r.attempted += len(p.Ops)
	for i, o := range p.Ops {
		recorded, diff := r.exp.check(r.w.name, r.seed, o)
		if !recorded && first != nil {
			if first.Ops[i].Key != o.Key {
				diff = fmt.Sprintf("op order changed: %s vs %s", o.Key, first.Ops[i].Key)
			} else {
				diff = wantOf(first.Ops[i]).diff(wantOf(o))
			}
		}
		if diff != "" {
			r.failed++
			r.fail("%s: %s", o.Key, diff)
		}
	}
	if first != nil {
		r.sameCounters("pass", first.Counters, p.Counters)
	}
}

func (r *run) sameCounters(what string, a, b map[string]uint64) {
	for _, k := range sortedKeys(a, b) {
		if a[k] != b[k] {
			r.fail("deterministic counter %s differs between two %ses of seed %d: %d vs %d", k, what, r.seed, a[k], b[k])
		}
	}
}

func sortedKeys(ms ...map[string]uint64) []string {
	seen := map[string]bool{}
	var keys []string
	for _, m := range ms {
		for k := range m {
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	}
	sort.Strings(keys)
	return keys
}

// untraced measures the end-to-end metrics: passes repeat until the time
// budget is spent and at least minPasses have run.
func (r *run) untraced() (report, error) {
	var setups []time.Duration
	for i := 0; i < setupReps; i++ {
		e, d, err := r.setup()
		if err != nil {
			return report{}, err
		}
		e.close()
		setups = append(setups, d)
	}
	var passes []*pass
	var e env
	begin := time.Now()
	for len(passes) < r.w.minPasses || time.Since(begin) < r.budget {
		if e == nil {
			var d time.Duration
			var err error
			if e, d, err = r.setup(); err != nil {
				return report{}, err
			}
			setups = append(setups, d)
		}
		p, err := e.pass()
		if r.w.freshPerPass {
			e.close()
			e = nil
		}
		if err != nil {
			r.attempted += r.w.opsPerPass
			r.failed += r.w.opsPerPass
			r.fail("pass %d: %v", len(passes)+1, err)
			break
		}
		var first *pass
		if len(passes) > 0 {
			first = passes[0]
		}
		r.checkPass(p, first)
		passes = append(passes, p)
	}
	if e != nil {
		e.close()
	}
	if len(passes) == 0 {
		r.printProblems()
		return report{}, fmt.Errorf("no pass completed")
	}

	var lat []time.Duration
	var wall time.Duration
	var instr uint64
	var allocs []float64
	for _, p := range passes {
		wall += p.Wall
		allocs = append(allocs, float64(p.Alloc))
		for _, o := range p.Ops {
			lat = append(lat, o.Latency)
			instr += o.Instrs
		}
	}
	// Estimates repeat exactly across passes, so the first pass scores them.
	var errSum float64
	var scored, withCI, covered int
	for _, o := range passes[0].Ops {
		if !o.Scored {
			continue
		}
		scored++
		errSum += math.Abs(stats.RelErr(o.IPC, o.TrueIPC))
		if o.HasCI {
			withCI++
			if o.Covered {
				covered++
			}
		}
	}
	m := map[string]metric{
		"setup_s":         {median(seconds(setups)), "s"},
		"sim_mips":        {float64(instr) / wall.Seconds() / 1e6, "MIPS"},
		"run_p50_ms":      {percentile(lat, 50).Seconds() * 1e3, "ms"},
		"run_tail_ms":     {percentile(lat, r.w.tailPct()).Seconds() * 1e3, "ms"},
		"alloc_mb":        {median(allocs) / 1e6, "MB"},
		"ipc_err_pct":     {100 * errSum / float64(scored), "%"},
		"ci_coverage_pct": {100 * float64(covered) / float64(withCI), "%"},
	}

	fmt.Printf("workload %s, seed %d, %d instructions per program: %d passes, %d ops in %.2fs (setup reps %d)\n",
		r.w.name, r.seed, uint64(total), len(passes), len(lat), wall.Seconds(), len(setups))
	for i, p := range passes {
		fmt.Printf("  pass %d: %.3fs, %d ops, %.1f MB allocated\n", i+1, p.Wall.Seconds(), len(p.Ops), float64(p.Alloc)/1e6)
	}
	if !r.exp.seedRecorded(r.w.name, r.seed) {
		fmt.Printf("no outputs recorded for seed %d: ops are checked against the first pass and the recorded true IPCs\n", r.seed)
	}
	tail := r.w.tailPct()
	fmt.Printf("run_tail_ms is p%d of %d op latencies (%d beyond it)\n", tail, len(lat), len(lat)-int(math.Ceil(float64(tail)/100*float64(len(lat)))))
	fmt.Printf("ipc_err_pct: mean |relative error| of %d estimates against the repo's own full-detail model at %d instructions, not against hardware\n", scored, uint64(total))
	fmt.Printf("ci_coverage_pct: %d of %d 95%% intervals cover the true IPC (%d point estimates without an interval excluded)\n", covered, withCI, scored-withCI)
	fmt.Printf("failed_pct: %.4f (%d of %d ops)\n", 100*float64(r.failed)/float64(max(r.attempted, 1)), r.failed, r.attempted)
	printCounters("deterministic counters per pass", passes[0].Counters)
	r.printProblems()
	return report{Correct: len(r.problems) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: m}, nil
}

// rep is one repetition of a traced run.
type rep struct {
	pass          *pass
	replayed      int // sampled runs replayed
	plain, traced *layers
}

// traced measures the per-layer metrics. Each repetition runs one untraced
// pass, then replays its sampled runs sequentially twice through
// sampling.RunSampledMethod: unwrapped (the untraced reference) and
// wrapped, recording spans on the first repetition only. Replayed results
// must equal the pass's.
func (r *run) traced() (report, error) {
	tr := obs.NewTracer(traceCapacity)
	var reps []rep
	base := filepath.Join(outDir, r.w.name)
	err := withProfile(base+".cpu.pprof", func() error {
		var e env
		begin := time.Now()
		for len(reps) < r.w.tracedReps || time.Since(begin) < r.budget {
			if e == nil {
				var err error
				if e, _, err = r.setup(); err != nil {
					return err
				}
			}
			p, err := e.pass()
			if err != nil {
				e.close()
				return err
			}
			runs := e.replay()
			if r.w.freshPerPass {
				e.close()
				e = nil
			}
			var first *pass
			if len(reps) > 0 {
				first = reps[0].pass
			}
			r.checkPass(p, first)
			plain, plainRuns, err := replay(runs, false, nil)
			if err != nil {
				return err
			}
			spans := tr
			if len(reps) > 0 {
				spans = nil
			}
			traced, tracedRuns, err := replay(runs, true, spans)
			if err != nil {
				return err
			}
			r.sameRuns(p, runs, plainRuns, tracedRuns)
			reps = append(reps, rep{pass: p, replayed: len(runs), plain: plain, traced: traced})
		}
		if e != nil {
			e.close()
		}
		return nil
	})
	if err != nil {
		return report{}, err
	}
	if d := tr.Dropped(); d != 0 {
		r.fail("trace ring dropped %d spans", d)
	}
	if err := writeTrace(tr, base+".trace.json"); err != nil {
		return report{}, err
	}

	m := r.layerMetrics(reps)
	fmt.Printf("workload %s, seed %d: %d traced repetitions; trace %s.trace.json, CPU profile %s.cpu.pprof\n",
		r.w.name, r.seed, len(reps), base, base)
	fmt.Printf("funcsim, warmup, core, ooo, mem and bpred metrics come from the sequential replay of %d sampled runs; times are medians over repetitions; the trace holds the first repetition's spans\n", reps[0].replayed)
	printMetrics(m)
	r.printProblems()
	return report{Correct: len(r.problems) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: m}, nil
}

// sameRuns requires the replayed runs to reproduce the pass's outputs, and
// the sampled pass's sharded results to equal the sequential ones exactly.
func (r *run) sameRuns(p *pass, runs []replayRun, plain, traced map[string]*sampling.RunResult) {
	byKey := map[string]op{}
	for _, o := range p.Ops {
		byKey[o.Key] = o
	}
	for _, rr := range runs {
		a, b := plain[rr.key], traced[rr.key]
		if d := wantOf(opOfRun(rr.key, a)).diff(wantOf(opOfRun(rr.key, b))); d != "" || !sameClusters(a, b) {
			r.fail("%s: traced replay differs from untraced replay %s", rr.key, d)
		}
		if d := wantOf(byKey[rr.key]).diff(wantOf(opOfRun(rr.key, a))); d != "" {
			r.fail("%s: sequential replay differs from the measured op: %s", rr.key, d)
		}
		if s, ok := p.Runs[rr.key]; ok && !sameClusters(s, a) {
			r.fail("%s: per-cluster results differ between the measured op and its sequential replay", rr.key)
		}
	}
}

func sameClusters(a, b *sampling.RunResult) bool {
	if len(a.Clusters) != len(b.Clusters) || a.Work != b.Work ||
		a.FuncInstructions != b.FuncInstructions || a.HotInstructions != b.HotInstructions {
		return false
	}
	for i := range a.Clusters {
		if a.Clusters[i] != b.Clusters[i] {
			return false
		}
	}
	return true
}

// layerMetrics reduces the repetitions to the per-layer metrics: host times
// as medians, counts from the first repetition after checking that every
// repetition repeated them.
func (r *run) layerMetrics(reps []rep) map[string]metric {
	med := func(f func(rep) float64) float64 {
		v := make([]float64, len(reps))
		for i, rp := range reps {
			v[i] = f(rp)
		}
		return median(v)
	}
	sec := func(d time.Duration) float64 { return d.Seconds() }
	ly0 := reps[0].traced
	c := layerCounters(reps[0])
	for _, rp := range reps[1:] {
		r.sameCounters("repetition", c, layerCounters(rp))
	}

	// True-IPC jobs of the fabric count toward the timing model's hot time
	// and cycles.
	hot := med(func(rp rep) float64 { return sec(rp.traced.hot + jobWall(rp, fullKey(""))) })
	busy := med(func(rp rep) float64 { return sec(rp.traced.funcBusy) })
	observe := med(func(rp rep) float64 { return sec(rp.traced.observe) })
	logObserve := med(func(rp rep) float64 { return sec(rp.traced.logObserve) })
	endSkip := med(func(rp rep) float64 { return sec(rp.traced.endSkip) })
	oooCycles := c["ooo.cycles"]

	m := map[string]metric{
		"funcsim.instr":            count(ly0.coldInstr),
		"funcsim.busy_s":           {busy, "s"},
		"funcsim.mips":             {ratio(float64(ly0.coldInstr), busy) / 1e6, "MIPS"},
		"warmup.observe_s":         {observe, "s"},
		"warmup.logged_records":    count(ly0.work.LoggedRecords),
		"warmup.warm_ops":          count(ly0.work.WarmOps),
		"warmup.ns_per_record":     {ratio(logObserve*1e9, float64(ly0.work.LoggedRecords)), "ns"},
		"core.endskip_s":           {endSkip, "s"},
		"core.recon_scanned":       count(ly0.work.ReconScanned),
		"core.recon_applied":       count(ly0.work.ReconApplied),
		"core.applied_per_scanned": {ratio(float64(ly0.work.ReconApplied), float64(ly0.work.ReconScanned)), "ratio"},
		"ooo.hot_s":                {hot, "s"},
		"ooo.cycles":               count(oooCycles),
		"ooo.instr":                count(c["ooo.instr"]),
		"ooo.ns_per_cycle":         {ratio(hot*1e9, float64(oooCycles)), "ns"},
		"mem.accesses":             count(ly0.l1i.Accesses + ly0.l1d.Accesses),
		"mem.l1d_miss_pct":         {100 * ratio(float64(ly0.l1d.Misses), float64(ly0.l1d.Accesses)), "%"},
		"mem.l2_miss_pct":          {100 * ratio(float64(ly0.l2.Misses), float64(ly0.l2.Accesses)), "%"},
		"bpred.lookups":            count(ly0.lookups),
		"bpred.mispredict_pct":     {100 * ratio(float64(ly0.mispredicts), float64(ly0.branches)), "%"},
		"obs.trace_overhead_pct": {100 * (med(func(rp rep) float64 { return sec(rp.traced.wall) })/
			med(func(rp rep) float64 { return sec(rp.plain.wall) }) - 1), "%"},
		"obs.accounted_pct": {100 * med(func(rp rep) float64 {
			ly := rp.traced
			return sec(ly.funcBusy+ly.observe+ly.endSkip+ly.hot) / sec(ly.wall)
		}), "%"},
	}

	// sampling: the sequential replay against the sharded pass it repeats.
	speedup, spread := 0.0, 0.0
	if r.w.name == "sampled" {
		v := make([]float64, len(reps))
		for i, rp := range reps {
			v[i] = sec(rp.plain.wall) / sec(rp.pass.Wall)
		}
		speedup, spread = median(v), 100*iqr(v)/median(v)
	}
	m["sampling.shard_speedup"] = metric{speedup, "x"}
	m["sampling.shard_speedup_iqr_pct"] = metric{spread, "%"}

	// regimen: summed Strategy.Run time per strategy.
	for _, s := range regimen.Names() {
		m["regimen."+s+"_s"] = metric{med(func(rp rep) float64 { return sec(rp.pass.StrategyTime[s]) }), "s"}
	}
	m["regimen.detailed_instr"] = count(c["regimen.detailed_instr"])

	// engine, cluster, cas: the fabric pass.
	var jobs, coalesced, puts, hits uint64
	var exec, busyPct, overhead, reqPerJob, busyRetries float64
	if f := reps[0].pass.Fabric; f != nil {
		jobs, coalesced, puts, hits = c["engine.jobs"], c["engine.coalesced"], c["cas.puts"], uint64(f.CAS.Hits)
		exec = med(func(rp rep) float64 { return sec(jobWall(rp, "")) })
		busyPct = 100 * med(func(rp rep) float64 {
			return sec(jobWall(rp, "")) / (float64(rp.pass.Fabric.Workers) * sec(rp.pass.Wall))
		})
		// Worker time per job not spent executing one: lease, polling and
		// result hand-off, and idle workers while the queue drains. Queue
		// wait is not in it, since a queued job leaves no worker idle.
		overhead = med(func(rp rep) float64 {
			f := rp.pass.Fabric
			idle := float64(f.Workers)*sec(rp.pass.Wall) - sec(jobWall(rp, ""))
			return idle / float64(len(f.Jobs)) * 1e3
		})
		reqPerJob = med(func(rp rep) float64 {
			return float64(rp.pass.Fabric.Requests) / float64(len(rp.pass.Fabric.Jobs))
		})
		busyRetries = med(func(rp rep) float64 { return float64(rp.pass.Fabric.Busy) })
	}
	m["engine.jobs"] = count(jobs)
	m["engine.exec_s"] = metric{exec, "s"}
	m["engine.busy_pct"] = metric{busyPct, "%"}
	m["engine.coalesced"] = count(coalesced)
	m["cluster.overhead_ms"] = metric{overhead, "ms"}
	m["cluster.requests_per_job"] = metric{reqPerJob, "ratio"}
	m["cluster.busy_retries"] = metric{busyRetries, "count"}
	m["cas.puts"] = count(puts)
	m["cas.hits"] = count(hits)
	return m
}

// jobWall sums Result.Wall over the fabric jobs whose key has prefix.
func jobWall(rp rep, prefix string) time.Duration {
	var d time.Duration
	if rp.pass.Fabric != nil {
		for _, j := range rp.pass.Fabric.Jobs {
			if strings.HasPrefix(j.Key, prefix) {
				d += j.Wall
			}
		}
	}
	return d
}

// layerCounters is a repetition's deterministic counters: the pass's and
// the wrapped replay's.
func layerCounters(rp rep) map[string]uint64 {
	c := map[string]uint64{}
	for k, v := range rp.pass.Counters {
		c[k] = v
	}
	ly := rp.traced
	c["funcsim.instr"] = ly.coldInstr
	c["ooo.cycles"] = ly.hotCycles
	c["ooo.instr"] = ly.hotInstr
	for _, o := range rp.pass.Ops {
		if strings.HasPrefix(o.Key, fullKey("")) {
			c["ooo.cycles"] += o.Cycles
			c["ooo.instr"] += o.Instrs
		}
	}
	c["replay.warm_ops"] = ly.work.WarmOps
	c["replay.logged_records"] = ly.work.LoggedRecords
	c["replay.recon_scanned"] = ly.work.ReconScanned
	c["replay.recon_applied"] = ly.work.ReconApplied
	c["mem.l1i_accesses"], c["mem.l1i_misses"] = ly.l1i.Accesses, ly.l1i.Misses
	c["mem.l1d_accesses"], c["mem.l1d_misses"] = ly.l1d.Accesses, ly.l1d.Misses
	c["mem.l2_accesses"], c["mem.l2_misses"] = ly.l2.Accesses, ly.l2.Misses
	c["bpred.lookups"] = ly.lookups
	c["bpred.replay_branches"], c["bpred.replay_mispredicts"] = ly.branches, ly.mispredicts
	return c
}

func writeTrace(tr *obs.Tracer, path string) error {
	fh, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChromeTrace(fh); err != nil {
		fh.Close()
		return err
	}
	return fh.Close()
}

func (r *run) printProblems() {
	const show = 20
	for i, p := range r.problems {
		if i == show {
			fmt.Printf("FAIL ... and %d more\n", len(r.problems)-show)
			break
		}
		fmt.Println("FAIL", p)
	}
}

func printCounters(title string, c map[string]uint64) {
	fmt.Println(title + ":")
	for _, k := range sortedKeys(c) {
		fmt.Printf("  %-28s %d count\n", k, c[k])
	}
}

func printMetrics(m map[string]metric) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %-36s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
}

func count(v uint64) metric { return metric{float64(v), "count"} }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// iqr is the distance between the first and third quartiles (nearest rank).
func iqr(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q := func(p float64) float64 { return s[int(math.Ceil(p*float64(len(s))))-1] }
	return q(0.75) - q(0.25)
}

// percentile is the nearest-rank p-th percentile of ds.
func percentile(ds []time.Duration, p int) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(float64(p)/100*float64(len(s)))) - 1
	return s[max(i, 0)]
}
