package main

import (
	"time"

	"rsr/internal/bpred"
	"rsr/internal/isa"
	"rsr/internal/mem"
	"rsr/internal/obs"
	"rsr/internal/sampling"
	"rsr/internal/trace"
	"rsr/internal/warmup"
)

// replayRun is one sampled run the traced run repeats through
// sampling.RunSampledMethod, sequentially, with the benchmark's wrapper
// around the warm-up method and its predictor.
type replayRun struct {
	key  string
	prog program
	seed int64
	spec warmup.Spec
}

// layers is what the wrapper measured over one replay pass. Times are host
// time; every count is a deterministic simulated or work count.
type layers struct {
	wall time.Duration

	funcBusy   time.Duration // cold-skip span minus ObserveSkipBatch time
	observe    time.Duration // summed ObserveSkipBatch
	endSkip    time.Duration // summed EndSkip: reverse scan + warm apply
	logObserve time.Duration // the part of observe spent in runs that log records
	hot        time.Duration // EndSkip return to the next BeginSkip or run end
	coldInstr  uint64        // skipped instructions handed to ObserveSkipBatch

	work                  warmup.Work
	hotCycles, hotInstr   uint64
	branches, mispredicts uint64
	lookups               uint64
	l1i, l1d, l2          mem.Stats // counted during hot phases only
}

// replay runs every run of rs sequentially. Unwrapped, the methods run as
// the product runs them, which is the reference for the trace overhead.
// Wrapped, the benchmark's wrapper times every layer; it also records spans
// when tr is not nil.
func replay(rs []replayRun, wrap bool, tr *obs.Tracer) (*layers, map[string]*sampling.RunResult, error) {
	ly := &layers{}
	out := map[string]*sampling.RunResult{}
	t0 := time.Now()
	for _, r := range rs {
		var tm *tracedMethod
		mk := func(h *mem.Hierarchy, u *bpred.Unit) warmup.Method {
			m := r.spec.New(h, u)
			if !wrap {
				return m
			}
			tm = &tracedMethod{Method: m, ly: ly, tr: tr, hier: h}
			if tr != nil {
				tm.tid = tr.NextTID()
			}
			tm.pred = countingPredictor{Predictor: m.Predictor(), lookups: &ly.lookups}
			return tm
		}
		observed := ly.observe
		start := time.Now()
		res, err := sampling.RunSampledMethod(r.prog.p, sampling.DefaultMachine(), r.prog.reg, total, r.seed, mk)
		if err != nil {
			return nil, nil, err
		}
		end := time.Now()
		if tm != nil {
			tm.endHot(end)
			tm.span(r.key, "op", start, end.Sub(start))
		}
		if res.Work.LoggedRecords > 0 {
			ly.logObserve += ly.observe - observed
		}
		out[r.key] = res
		ly.work = addWork(ly.work, res.Work)
		for _, c := range res.Clusters {
			ly.hotCycles += c.Result.Cycles
			ly.hotInstr += c.Result.Instructions
			ly.branches += c.Result.Branches
			ly.mispredicts += c.Result.Mispredicts
		}
	}
	ly.wall = time.Since(t0)
	return ly, out, nil
}

func addWork(a, b warmup.Work) warmup.Work {
	return warmup.Work{
		WarmOps:       a.WarmOps + b.WarmOps,
		LoggedRecords: a.LoggedRecords + b.LoggedRecords,
		ReconScanned:  a.ReconScanned + b.ReconScanned,
		ReconApplied:  a.ReconApplied + b.ReconApplied,
	}
}

// tracedMethod wraps a warm-up method to time the phases the sampling
// controller drives through it. Each phase becomes a span on the run's
// track: funcsim.cold-skip from BeginSkip to the EndSkip call, with a
// nested warmup.observe span whose length is the region's summed
// ObserveSkipBatch time (drawn from the region's start), then core.endskip
// and ooo.hot. Self time of a span is its length minus its nested spans.
// With a nil tracer it only sums the times into ly.
type tracedMethod struct {
	warmup.Method
	ly   *layers
	tr   *obs.Tracer
	tid  int64
	hier *mem.Hierarchy
	pred countingPredictor

	coldStart, hotStart time.Time
	observe             time.Duration
	inHot               bool
	l1i, l1d, l2        mem.Stats // cache counters at the start of the hot phase
}

func (m *tracedMethod) BeginSkip(n uint64) {
	now := time.Now()
	m.endHot(now)
	m.coldStart, m.observe = now, 0
	m.Method.BeginSkip(n)
}

func (m *tracedMethod) ObserveSkipBatch(ds []trace.DynInst) {
	t0 := time.Now()
	m.Method.ObserveSkipBatch(ds)
	m.observe += time.Since(t0)
	m.ly.coldInstr += uint64(len(ds))
}

func (m *tracedMethod) EndSkip() {
	t0 := time.Now()
	cold := t0.Sub(m.coldStart)
	m.span("funcsim.cold-skip", "layer", m.coldStart, cold)
	m.span("warmup.observe", "layer", m.coldStart, m.observe)
	m.ly.funcBusy += cold - m.observe
	m.ly.observe += m.observe
	m.Method.EndSkip()
	t1 := time.Now()
	m.span("core.endskip", "layer", t0, t1.Sub(t0))
	m.ly.endSkip += t1.Sub(t0)
	m.hotStart, m.inHot = t1, true
	m.l1i, m.l1d, m.l2 = m.hier.L1I.Stats(), m.hier.L1D.Stats(), m.hier.L2.Stats()
}

// endHot closes the hot phase begun at the last EndSkip, if one is open.
func (m *tracedMethod) endHot(now time.Time) {
	if !m.inHot {
		return
	}
	m.inHot = false
	d := now.Sub(m.hotStart)
	m.span("ooo.hot", "layer", m.hotStart, d)
	m.ly.hot += d
	addStats(&m.ly.l1i, m.hier.L1I.Stats(), m.l1i)
	addStats(&m.ly.l1d, m.hier.L1D.Stats(), m.l1d)
	addStats(&m.ly.l2, m.hier.L2.Stats(), m.l2)
}

func (m *tracedMethod) span(name, cat string, start time.Time, d time.Duration) {
	if m.tr != nil {
		m.tr.Record(name, cat, m.tid, start, d)
	}
}

func (m *tracedMethod) Predictor() bpred.Predictor { return &m.pred }

// addStats adds the cache events between from and to into acc.
func addStats(acc *mem.Stats, to, from mem.Stats) {
	acc.Accesses += to.Accesses - from.Accesses
	acc.Hits += to.Hits - from.Hits
	acc.Misses += to.Misses - from.Misses
}

// countingPredictor counts the timing model's predictor lookups.
type countingPredictor struct {
	bpred.Predictor
	lookups *uint64
}

func (c *countingPredictor) Predict(pc uint64, class isa.Class) bpred.Prediction {
	*c.lookups++
	return c.Predictor.Predict(pc, class)
}
