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
//
// Every method also supports region captures (NewRegionCapture/AdoptRegion),
// the contract the parallel cluster pipeline builds on: a region's skip
// observation runs on a producer goroutine against a private capture, and
// the consumer adopts captures in strict cluster order. Methods that log
// (reverse) capture the log directly; methods that functionally warm shared
// state (SMARTS, fixed-period, windowed) capture the would-be warming
// references and AdoptRegion replays them in order, so no method ever falls
// back to sequential execution under sharding.
type Method interface {
	Name() string
	BeginSkip(expectedLen uint64)
	ObserveSkipBatch(ds []trace.DynInst)
	EndSkip()
	Predictor() bpred.Predictor
	Work() Work

	// NewRegionCapture returns a capture for the region-indexed skip phase
	// with the given expected length. It must be safe for concurrent use and
	// may read only immutable method configuration; the returned capture is
	// confined to one goroutine until it is handed to AdoptRegion.
	NewRegionCapture(region int, expectedLen uint64) RegionCapture
	// AdoptRegion installs a fed-and-sealed capture as if the method had
	// observed the region's stream itself. It must be called between
	// BeginSkip and EndSkip in place of the method's own ObserveSkipBatch
	// calls for that region, and leaves the method in exactly the state direct
	// observation would.
	AdoptRegion(c RegionCapture)
}

// RegionCapture accumulates one skip region's observation product away from
// the method's shared state, so a region can be observed on a goroutine of
// its own while earlier regions are still being consumed. Feeding a capture
// the region's batches, sealing it, and adopting it is equivalent to feeding
// the method directly between BeginSkip and EndSkip.
//
// Seal finalizes the capture after its last batch, still on the producer
// goroutine: work that is a pure function of the captured stream — for the
// reverse method, the backward scan that materializes the cache and
// predictor warm-apply plans — runs here, off the consumer's critical path.
// Seal is optional (an unsealed capture makes AdoptRegion's consumer do that
// work itself, byte-identically) and must be called at most once, after the
// final ObserveSkipBatch.
type RegionCapture interface {
	ObserveSkipBatch(ds []trace.DynInst)
	Seal()
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

// noneCapture is the trivial region capture: None observes nothing, so the
// capture is stateless and a single value serves every region.
type noneCapture struct{}

func (noneCapture) ObserveSkipBatch([]trace.DynInst) {}
func (noneCapture) Seal()                            {}

func (n *none) NewRegionCapture(int, uint64) RegionCapture { return noneCapture{} }
func (n *none) AdoptRegion(RegionCapture)                  {}

// --- shared functional-warming machinery (SMARTS and fixed-period) ---

type funcWarm struct {
	h     *mem.Hierarchy
	u     *bpred.Unit
	cache bool
	bp    bool
	label string
	// lineMask is the immutable L1I line mask; NewRegionCapture reads it from
	// concurrent producer goroutines while the mutable lines tracker advances
	// on the consumer, so the two must be separate fields.
	lineMask uint64
	lines    lineTracker
	work     Work
}

// newFuncWarm builds the shared functional-warming state with the line
// tracker initialized up front (as newReverse does), keeping the
// batch apply path free of construction checks.
func newFuncWarm(h *mem.Hierarchy, u *bpred.Unit, s Spec) funcWarm {
	lt := newLineTracker(h.Config().L1I.LineBytes)
	return funcWarm{h: h, u: u, cache: s.Cache, bp: s.BPred, label: s.Label(),
		lineMask: lt.lineMask, lines: lt}
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

// funcWarmCapture is the functional-warming family's region capture: instead
// of mutating the shared hierarchy and predictor from a producer goroutine,
// it logs exactly the references the method would have applied — the
// post-threshold suffix, with instruction fetches collapsed per line by the
// same appendSkipRecords kernel the reverse method uses — and AdoptRegion
// replays that log against the shared state in order. One log record
// corresponds to one functional application, so the capture's record count
// is the region's WarmOps delta.
type funcWarmCapture struct {
	cache     bool
	bp        bool
	threshold uint64
	seen      uint64
	log       trace.SkipLog
	lines     lineTracker
	logged    uint64
}

func (c *funcWarmCapture) ObserveSkipBatch(ds []trace.DynInst) {
	if warm := tail(&c.seen, c.threshold, ds); len(warm) > 0 {
		c.logged += appendSkipRecords(&c.log, &c.lines, c.cache, c.bp, warm)
	}
}

// Seal is a no-op: functional warming has no producer-side scan to
// materialize — the capture's log already is the warm-apply plan.
func (c *funcWarmCapture) Seal() {}

// newCapture builds a capture applying everything past threshold. Only
// immutable configuration is read, so captures may be created concurrently.
func (f *funcWarm) newCapture(threshold uint64) *funcWarmCapture {
	return &funcWarmCapture{cache: f.cache, bp: f.bp, threshold: threshold,
		lines: lineTracker{lineMask: f.lineMask}}
}

// adoptCapture replays a captured region's warming references against the
// shared machine in captured order. Cache and predictor state are
// independent structures (the applyBatch argument), so the two-pass replay
// leaves exactly the state direct per-batch observation would, and the line
// tracker is restored to the capture's final state just as direct
// observation would leave it.
func (f *funcWarm) adoptCapture(c *funcWarmCapture) {
	if f.cache {
		for i := range c.log.Mem {
			r := &c.log.Mem[i]
			if r.IsInstr {
				f.h.WarmInst(r.Addr)
			} else {
				f.h.WarmData(r.Addr, r.IsStore)
			}
		}
		f.lines.last, f.lines.have = c.lines.last, c.lines.have
	}
	if f.bp {
		for i := range c.log.Branches {
			f.u.Update(c.log.Branches[i])
		}
	}
	f.work.WarmOps += c.logged
}

// --- SMARTS: full functional warming of the whole skip region ---

type smarts struct{ funcWarm }

func (s *smarts) Name() string                        { return s.label }
func (s *smarts) BeginSkip(uint64)                    { s.lines.reset() }
func (s *smarts) ObserveSkipBatch(ds []trace.DynInst) { s.applyBatch(ds) }
func (s *smarts) EndSkip()                            {}
func (s *smarts) Predictor() bpred.Predictor          { return s.u }
func (s *smarts) Work() Work                          { return s.work }

// NewRegionCapture captures the whole region (threshold 0): SMARTS warms
// every skipped instruction.
func (s *smarts) NewRegionCapture(int, uint64) RegionCapture { return s.newCapture(0) }
func (s *smarts) AdoptRegion(c RegionCapture)                { s.adoptCapture(c.(*funcWarmCapture)) }

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

// NewRegionCapture derives the region's threshold exactly as BeginSkip does.
func (f *fixedPeriod) NewRegionCapture(_ int, expectedLen uint64) RegionCapture {
	return f.newCapture(expectedLen - expectedLen*uint64(f.percent)/100)
}

func (f *fixedPeriod) AdoptRegion(c RegionCapture) {
	cc := c.(*funcWarmCapture)
	f.adoptCapture(cc)
	f.seen = cc.seen
}

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

// NewRegionCapture selects the profiled window for the explicit region index
// (producers run regions out of order, so the method's own region cursor —
// advanced by the consumer's BeginSkip — cannot be used) and clamps it
// exactly as BeginSkip does. The windows slice is immutable after
// construction, so concurrent reads are safe.
func (w *windowed) NewRegionCapture(region int, expectedLen uint64) RegionCapture {
	win := uint64(0)
	if region < len(w.windows) {
		win = w.windows[region]
	}
	if win > expectedLen {
		win = expectedLen
	}
	return w.newCapture(expectedLen - win)
}

func (w *windowed) AdoptRegion(c RegionCapture) {
	cc := c.(*funcWarmCapture)
	w.adoptCapture(cc)
	w.seen = cc.seen
}

// --- Reverse State Reconstruction ---

type reverse struct {
	h     *mem.Hierarchy
	u     *bpred.Unit
	rp    *core.ReconPredictor
	spec  Spec
	label string
	// lineMask is the immutable L1I line mask; NewRegionCapture reads it
	// from concurrent producer goroutines while AdoptRegion overwrites the
	// mutable lines tracker, so the two must be separate fields.
	lineMask uint64
	// hcfg and geom are immutable geometry snapshots read by capture Seal on
	// producer goroutines, so planning never touches the shared machine.
	hcfg          mem.HierarchyConfig
	geom          core.PredGeom
	log           trace.SkipLog
	lines         lineTracker
	work          Work
	lastPredStats core.PredReconStats

	// Plans staged by AdoptRegion for the next EndSkip; nil when the region
	// was observed directly (sequential path) or the capture was not sealed.
	cachePlan *core.CacheReconPlan
	predPlan  *core.PredReconPlan
}

func newReverse(h *mem.Hierarchy, u *bpred.Unit, s Spec) *reverse {
	lt := newLineTracker(h.Config().L1I.LineBytes)
	r := &reverse{h: h, u: u, spec: s, label: s.Label(),
		lineMask: lt.lineMask, lines: lt, hcfg: h.Config()}
	if s.BPred {
		r.rp = core.NewReconPredictor(u)
		r.rp.SetNoInference(s.NoCounterInference)
		r.geom = core.PredGeomOf(u)
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
	r.cachePlan, r.predPlan = nil, nil
}

// appendSkipRecords is the batched logging kernel shared by the reverse
// method and its region captures: the cache/bpred policy checks are hoisted
// out of the loop, the line tracker runs on locals, and records append
// straight onto the log slices (allocation-free once the region log has
// reached steady-state capacity). It returns how many records it appended.
// Sharing the kernel is what makes a capture's log byte-identical to direct
// observation by construction.
func appendSkipRecords(log *trace.SkipLog, lines *lineTracker, cache, bp bool, ds []trace.DynInst) uint64 {
	var logged uint64
	if cache {
		mask, last, have := lines.lineMask, lines.last, lines.have
		mem := log.Mem
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
		log.Mem = mem
		lines.last, lines.have = last, have
	}
	if bp {
		branches := log.Branches
		for i := range ds {
			d := &ds[i]
			if d.Op.IsControl() {
				branches = append(branches, branchRecordOf(d))
				logged++
			}
		}
		log.Branches = branches
	}
	return logged
}

// ObserveSkipBatch logs the batch's cache references and branches through
// the shared logging kernel.
func (r *reverse) ObserveSkipBatch(ds []trace.DynInst) {
	r.work.LoggedRecords += appendSkipRecords(&r.log, &r.lines, r.spec.Cache, r.spec.BPred, ds)
}

// reverseCapture is the reverse method's region capture: a private log and
// line tracker fed by the same kernel as direct observation. BeginSkip
// discards the previous region's log, so starting from an empty log and a
// reset tracker reproduces the method's region-start state exactly. Seal
// runs the backward scans over the private log, materializing the cache and
// predictor warm-apply plans that shrink the consumer's EndSkip to
// O(applied) work.
type reverseCapture struct {
	cache   bool
	bp      bool
	percent int
	hcfg    mem.HierarchyConfig
	geom    core.PredGeom
	log     trace.SkipLog
	lines   lineTracker
	logged  uint64

	cachePlan *core.CacheReconPlan
	predPlan  *core.PredReconPlan
}

func (c *reverseCapture) ObserveSkipBatch(ds []trace.DynInst) {
	c.logged += appendSkipRecords(&c.log, &c.lines, c.cache, c.bp, ds)
}

// Seal moves the reverse scans producer-side: the apply/skip decisions of
// both reconstruction passes are pure functions of the captured log (plus,
// for the predictor, a stale GHR prefix the plan carries as fixups), so the
// plans are exact and EndSkip only replays their mutating subset.
func (c *reverseCapture) Seal() {
	if c.cache {
		c.cachePlan = core.PlanCacheRecon(c.hcfg, c.log.Mem, c.percent)
	}
	if c.bp {
		c.predPlan = core.PlanPredRecon(c.geom, c.log.Branches, c.percent)
	}
}

// NewRegionCapture returns a capture for one skip region. Only immutable
// configuration is read, so captures may be created concurrently.
func (r *reverse) NewRegionCapture(int, uint64) RegionCapture {
	return &reverseCapture{cache: r.spec.Cache, bp: r.spec.BPred,
		percent: r.spec.Percent, hcfg: r.hcfg, geom: r.geom,
		lines: lineTracker{lineMask: r.lineMask}}
}

// AdoptRegion installs a captured region log — and, when the capture was
// sealed, its materialized plans — as if the method had observed the region
// itself. The caller has already run BeginSkip for the region (which folded
// predictor work and discarded the previous log), so adopting replaces the
// empty log wholesale.
func (r *reverse) AdoptRegion(c RegionCapture) {
	cc := c.(*reverseCapture)
	r.log = cc.log
	r.lines = cc.lines
	r.work.LoggedRecords += cc.logged
	r.cachePlan = cc.cachePlan
	r.predPlan = cc.predPlan
}

func (r *reverse) EndSkip() {
	if r.spec.Cache {
		var st core.CacheReconStats
		if r.cachePlan != nil {
			st = core.ApplyCacheRecon(r.h, r.cachePlan)
			r.cachePlan = nil
		} else {
			st = core.ReconstructCaches(r.h, r.log.Mem, r.spec.Percent)
		}
		r.work.ReconScanned += st.ScannedRefs
		r.work.ReconApplied += st.Applied
	}
	if r.spec.BPred {
		if r.predPlan != nil {
			r.rp.BeginRegionPlan(r.predPlan)
			r.predPlan = nil
		} else {
			r.rp.BeginRegion(r.log.Branches, r.spec.Percent)
		}
		st := r.rp.Stats()
		r.lastPredStats = st
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
