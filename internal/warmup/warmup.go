// Package warmup implements the paper's warm-up policies (Table 2): no
// warm-up, fixed-period functional warming, SMARTS full-functional warming
// (cache-only, predictor-only, or both), and Reverse State Reconstruction
// (cache-only, predictor-only, or both, at a warm-up percentage). Every
// method plugs into the sampling controller through the Method interface and
// reports the work it performed, the machine-independent cost metric used by
// the experiment harness.
package warmup

import (
	"fmt"

	"rsr/internal/bpred"
	"rsr/internal/core"
	"rsr/internal/isa"
	"rsr/internal/mem"
	"rsr/internal/trace"
)

// Method is one warm-up policy attached to a sampled run. The controller
// calls BeginSkip when a skip region starts, ObserveSkipBatch for every
// batch of skipped dynamic instructions, and EndSkip immediately before the
// next cluster; the timing model then probes Predictor() during hot
// execution.
//
// ObserveSkipBatch is the only observation entry. How the region's records
// are split into batches must not matter: observing ds in one call or in any
// sequence of sub-slices leaves the same state. Implementations specialize
// the batch (policy checks hoisted out of the loop, line tracking and log
// appends flattened); TestBatchScalarEquivalence pins them against a
// per-record reference kept in the tests.
type Method interface {
	Name() string
	BeginSkip(expectedLen uint64)
	ObserveSkipBatch(ds []trace.DynInst)
	EndSkip()
	Predictor() bpred.Predictor
	Work() Work
}

// Work counts warm-up effort in state operations, the deterministic analogue
// of the paper's simulation-time comparison.
type Work struct {
	// WarmOps counts functional applications to caches or predictor
	// (SMARTS/fixed-period style work).
	WarmOps uint64
	// LoggedRecords counts skip-region log appends (reverse-method capture
	// cost; much cheaper per record than a functional application).
	LoggedRecords uint64
	// ReconScanned counts log records consumed by reverse scans.
	ReconScanned uint64
	// ReconApplied counts state mutations made by reconstruction.
	ReconApplied uint64
}

// Sub returns the work performed since prev. Method.Work is cumulative and
// cheap to read, so snapshotting it at phase boundaries and subtracting
// yields per-cluster deltas — how the sampling controller attributes logged
// records and applied references to individual clusters for metrics and
// trace spans without touching the observe hot path.
func (w Work) Sub(prev Work) Work {
	return Work{
		WarmOps:       w.WarmOps - prev.WarmOps,
		LoggedRecords: w.LoggedRecords - prev.LoggedRecords,
		ReconScanned:  w.ReconScanned - prev.ReconScanned,
		ReconApplied:  w.ReconApplied - prev.ReconApplied,
	}
}

// Kind enumerates the warm-up families.
type Kind uint8

// Warm-up families.
const (
	KindNone Kind = iota
	KindFixed
	KindSMARTS
	KindReverse
)

// Spec names one warm-up configuration from the paper's experiment matrix.
type Spec struct {
	Kind    Kind
	Percent int  // warm-up percentage for Fixed and Reverse
	Cache   bool // warm the cache hierarchy
	BPred   bool // warm the branch predictor
	// NoCounterInference disables the Reverse method's weak-form /
	// middle-state counter inference, leaving unresolved entries stale
	// (ablation of §3.2's Figure 3 rule). Only meaningful for KindReverse
	// with BPred.
	NoCounterInference bool
}

// Label renders the paper's abbreviations: None, FP (p%), S$, SBP, S$BP,
// R$ (p%), RBP, R$BP (p%).
func (s Spec) Label() string {
	switch s.Kind {
	case KindNone:
		return "None"
	case KindFixed:
		return fmt.Sprintf("FP (%d%%)", s.Percent)
	case KindSMARTS:
		return "S" + structSuffix(s.Cache, s.BPred)
	case KindReverse:
		base := "R" + structSuffix(s.Cache, s.BPred)
		if s.Cache {
			base = fmt.Sprintf("%s (%d%%)", base, s.Percent)
		}
		if s.NoCounterInference {
			base += " no-infer"
		}
		return base
	}
	return "?"
}

func structSuffix(cache, bp bool) string {
	switch {
	case cache && bp:
		return "$BP"
	case cache:
		return "$"
	case bp:
		return "BP"
	}
	return ""
}

// New instantiates the method over the run's shared hierarchy and predictor.
func (s Spec) New(h *mem.Hierarchy, u *bpred.Unit) Method {
	switch s.Kind {
	case KindFixed:
		return &fixedPeriod{funcWarm: newFuncWarm(h, u, s), percent: s.Percent}
	case KindSMARTS:
		return &smarts{funcWarm: newFuncWarm(h, u, s)}
	case KindReverse:
		return newReverse(h, u, s)
	default:
		return &none{u: u}
	}
}

// Matrix returns the paper's Table 2 experiment matrix in reporting order.
func Matrix() []Spec {
	return []Spec{
		{Kind: KindFixed, Percent: 20, Cache: true, BPred: true},
		{Kind: KindFixed, Percent: 40, Cache: true, BPred: true},
		{Kind: KindFixed, Percent: 80, Cache: true, BPred: true},
		{Kind: KindNone},
		{Kind: KindSMARTS, Cache: true},
		{Kind: KindSMARTS, BPred: true},
		{Kind: KindSMARTS, Cache: true, BPred: true},
		{Kind: KindReverse, Percent: 20, Cache: true},
		{Kind: KindReverse, Percent: 40, Cache: true},
		{Kind: KindReverse, Percent: 80, Cache: true},
		{Kind: KindReverse, Percent: 100, Cache: true},
		{Kind: KindReverse, Percent: 100, BPred: true},
		{Kind: KindReverse, Percent: 20, Cache: true, BPred: true},
		{Kind: KindReverse, Percent: 40, Cache: true, BPred: true},
		{Kind: KindReverse, Percent: 80, Cache: true, BPred: true},
		{Kind: KindReverse, Percent: 100, Cache: true, BPred: true},
	}
}

// SpecByLabel resolves a paper abbreviation ("S$BP", "R$BP (20%)", "None",
// "FP (40%)") back to its Spec.
func SpecByLabel(label string) (Spec, error) {
	for _, s := range Matrix() {
		if s.Label() == label {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("warmup: unknown method label %q", label)
}

// lineTracker detects instruction-fetch line crossings so per-instruction
// fetches collapse to one reference per line, identically for functional
// warming and for logging.
type lineTracker struct {
	lineMask uint64
	last     uint64
	have     bool
}

func newLineTracker(lineBytes int) lineTracker {
	return lineTracker{lineMask: ^uint64(lineBytes - 1)}
}

func (t *lineTracker) reset() { t.have = false }

// branchRecordOf converts a committed control transfer to its log record.
func branchRecordOf(d *trace.DynInst) trace.BranchRecord {
	return trace.BranchRecord{PC: d.PC, NextPC: d.NextPC, Taken: d.Taken, Class: d.Op.Class()}
}

// --- None ---

type none struct{ u *bpred.Unit }

func (n *none) Name() string                     { return "None" }
func (n *none) BeginSkip(uint64)                 {}
func (n *none) ObserveSkipBatch([]trace.DynInst) {}
func (n *none) EndSkip()                         {}
func (n *none) Predictor() bpred.Predictor       { return n.u }
func (n *none) Work() Work                       { return Work{} }

// --- shared functional-warming machinery (SMARTS and fixed-period) ---

type funcWarm struct {
	h     *mem.Hierarchy
	u     *bpred.Unit
	cache bool
	bp    bool
	label string
	lines lineTracker
	work  Work
}

// newFuncWarm builds the shared functional-warming state with the line
// tracker initialized up front (as newReverse does), keeping the
// batch apply path free of construction checks.
func newFuncWarm(h *mem.Hierarchy, u *bpred.Unit, s Spec) funcWarm {
	return funcWarm{h: h, u: u, cache: s.Cache, bp: s.BPred, label: s.Label(),
		lines: newLineTracker(h.Config().L1I.LineBytes)}
}

// applyBatch functionally warms the hierarchy and predictor with a batch of
// skipped records: one instruction fetch per newly entered L1I line, every
// data reference, and every control transfer. The cache/bpred policy checks
// are hoisted out of the loop and the line tracker runs on locals, written
// back once per batch. Cache and predictor state are independent structures,
// so splitting the per-record interleaving into two passes leaves identical
// final state and work counts.
func (f *funcWarm) applyBatch(ds []trace.DynInst) {
	if f.cache {
		mask, last, have := f.lines.lineMask, f.lines.last, f.lines.have
		var ops uint64
		for i := range ds {
			d := &ds[i]
			if line := d.PC & mask; !have || line != last {
				f.h.WarmInst(d.PC)
				ops++
				last, have = line, true
			}
			if d.Op.IsMem() {
				f.h.WarmData(d.EffAddr, d.Op.Class() == isa.ClassStore)
				ops++
			}
		}
		f.lines.last, f.lines.have = last, have
		f.work.WarmOps += ops
	}
	if f.bp {
		var ops uint64
		for i := range ds {
			d := &ds[i]
			if d.Op.IsControl() {
				f.u.Update(branchRecordOf(d))
				ops++
			}
		}
		f.work.WarmOps += ops
	}
}

// tail returns the suffix of ds past the warming threshold, advancing *seen:
// the shared batch form of the "apply once seen exceeds threshold" rule of
// the fixed-period and profiled-window methods.
func tail(seen *uint64, threshold uint64, ds []trace.DynInst) []trace.DynInst {
	s := *seen
	*seen = s + uint64(len(ds))
	if s >= threshold {
		return ds
	}
	if skip := threshold - s; skip < uint64(len(ds)) {
		return ds[skip:]
	}
	return nil
}

// --- SMARTS: full functional warming of the whole skip region ---

type smarts struct{ funcWarm }

func (s *smarts) Name() string                        { return s.label }
func (s *smarts) BeginSkip(uint64)                    { s.lines.reset() }
func (s *smarts) ObserveSkipBatch(ds []trace.DynInst) { s.applyBatch(ds) }
func (s *smarts) EndSkip()                            {}
func (s *smarts) Predictor() bpred.Predictor          { return s.u }
func (s *smarts) Work() Work                          { return s.work }

// --- Fixed period: functional warming of the trailing percent only ---

type fixedPeriod struct {
	funcWarm
	percent   int
	seen      uint64
	threshold uint64
}

func (f *fixedPeriod) Name() string { return f.label }

func (f *fixedPeriod) BeginSkip(expectedLen uint64) {
	f.lines.reset()
	f.seen = 0
	f.threshold = expectedLen - expectedLen*uint64(f.percent)/100
}

func (f *fixedPeriod) ObserveSkipBatch(ds []trace.DynInst) {
	if warm := tail(&f.seen, f.threshold, ds); len(warm) > 0 {
		f.applyBatch(warm)
	}
}

func (f *fixedPeriod) EndSkip()                   {}
func (f *fixedPeriod) Predictor() bpred.Predictor { return f.u }
func (f *fixedPeriod) Work() Work                 { return f.work }

// --- Profiled-window warming (MRRL / BLRL) ---

// windowed functionally warms the trailing window of each skip region, with
// per-region window lengths computed by a reuse-latency profiling pass (the
// MRRL and BLRL methods of §2). Unlike fixed-period warming the window is
// not a fixed percentage: it is whatever the profile says covers the chosen
// percentile of reuse latencies for that specific cluster / pre-cluster
// pair. The windows pin the cluster locations they were profiled with.
type windowed struct {
	funcWarm
	windows   []uint64
	region    int
	seen      uint64
	threshold uint64
}

// NewWindowed builds an MRRL/BLRL-style method over precomputed per-region
// warm windows (in instructions before each cluster).
func NewWindowed(label string, h *mem.Hierarchy, u *bpred.Unit, windows []uint64) Method {
	fw := newFuncWarm(h, u, Spec{Cache: true, BPred: true})
	fw.label = label
	return &windowed{funcWarm: fw, windows: windows}
}

func (w *windowed) Name() string { return w.label }

func (w *windowed) BeginSkip(expectedLen uint64) {
	w.lines.reset()
	w.seen = 0
	win := uint64(0)
	if w.region < len(w.windows) {
		win = w.windows[w.region]
	}
	w.region++
	if win > expectedLen {
		win = expectedLen
	}
	w.threshold = expectedLen - win
}

func (w *windowed) ObserveSkipBatch(ds []trace.DynInst) {
	if warm := tail(&w.seen, w.threshold, ds); len(warm) > 0 {
		w.applyBatch(warm)
	}
}

func (w *windowed) EndSkip()                   {}
func (w *windowed) Predictor() bpred.Predictor { return w.u }
func (w *windowed) Work() Work                 { return w.work }

// --- Reverse State Reconstruction ---

type reverse struct {
	h     *mem.Hierarchy
	u     *bpred.Unit
	rp    *core.ReconPredictor
	spec  Spec
	label string
	log   trace.SkipLog
	lines lineTracker
	work  Work
}

func newReverse(h *mem.Hierarchy, u *bpred.Unit, s Spec) *reverse {
	r := &reverse{h: h, u: u, spec: s, label: s.Label(),
		lines: newLineTracker(h.Config().L1I.LineBytes)}
	if s.BPred {
		r.rp = core.NewReconPredictor(u)
		r.rp.SetNoInference(s.NoCounterInference)
	}
	return r
}

func (r *reverse) Name() string { return r.label }

func (r *reverse) BeginSkip(uint64) {
	// Storage is kept only for the current region (§3): discard the previous
	// region's log.
	r.collectPredWork()
	r.log.Reset()
	r.lines.reset()
}

// ObserveSkipBatch logs the batch's cache references and branches. The
// cache/bpred policy checks are hoisted out of the loop, the line tracker
// runs on locals, and records append straight onto the log slices
// (allocation-free once the region log has reached steady-state capacity).
func (r *reverse) ObserveSkipBatch(ds []trace.DynInst) {
	var logged uint64
	if r.spec.Cache {
		mask, last, have := r.lines.lineMask, r.lines.last, r.lines.have
		mem := r.log.Mem
		for i := range ds {
			d := &ds[i]
			if line := d.PC & mask; !have || line != last {
				mem = append(mem, trace.MemRecord{PC: d.PC, NextPC: d.NextPC, Addr: d.PC, IsInstr: true})
				logged++
				last, have = line, true
			}
			if d.Op.IsMem() {
				mem = append(mem, trace.MemRecord{
					PC: d.PC, NextPC: d.NextPC, Addr: d.EffAddr,
					IsStore: d.Op.Class() == isa.ClassStore,
				})
				logged++
			}
		}
		r.log.Mem = mem
		r.lines.last, r.lines.have = last, have
	}
	if r.spec.BPred {
		branches := r.log.Branches
		for i := range ds {
			d := &ds[i]
			if d.Op.IsControl() {
				branches = append(branches, branchRecordOf(d))
				logged++
			}
		}
		r.log.Branches = branches
	}
	r.work.LoggedRecords += logged
}

func (r *reverse) EndSkip() {
	if r.spec.Cache {
		st := core.ReconstructCaches(r.h, r.log.Mem, r.spec.Percent)
		r.work.ReconScanned += st.ScannedRefs
		r.work.ReconApplied += st.Applied
	}
	if r.spec.BPred {
		r.rp.BeginRegion(r.log.Branches, r.spec.Percent)
		st := r.rp.Stats()
		r.work.ReconApplied += st.BTBInstalled + st.RASInstalled
	}
}

// collectPredWork folds the on-demand scanning performed during the previous
// cluster into the cumulative work counters.
func (r *reverse) collectPredWork() {
	if r.rp == nil {
		return
	}
	st := r.rp.Stats()
	r.work.ReconScanned += st.ScannedRecords
	r.work.ReconApplied += st.CountersExact + st.CountersInferred
}

func (r *reverse) Predictor() bpred.Predictor {
	if r.rp != nil {
		return r.rp
	}
	return r.u
}

func (r *reverse) Work() Work {
	w := r.work
	if r.rp != nil {
		st := r.rp.Stats()
		w.ReconScanned += st.ScannedRecords
		w.ReconApplied += st.CountersExact + st.CountersInferred
	}
	return w
}
