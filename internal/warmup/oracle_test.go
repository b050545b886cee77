package warmup

import (
	"fmt"

	"rsr/internal/isa"
	"rsr/internal/trace"
)

// This file holds the per-record reference semantics that every method's
// ObserveSkipBatch is checked against (TestBatchScalarEquivalence,
// TestWindowedBatchScalarEquivalence): one skipped instruction at a time,
// with no hoisted policy checks, no local line tracking and no shared
// logging kernel.

// observeScalar observes one skipped record the way the batch path must
// behave for a batch holding only d.
func observeScalar(m Method, d *trace.DynInst) {
	switch m := m.(type) {
	case *none:
	case *smarts:
		applyScalar(&m.funcWarm, d)
	case *fixedPeriod:
		m.seen++
		if m.seen > m.threshold {
			applyScalar(&m.funcWarm, d)
		}
	case *windowed:
		m.seen++
		if m.seen > m.threshold {
			applyScalar(&m.funcWarm, d)
		}
	case *reverse:
		logScalar(m, d)
	default:
		panic(fmt.Sprintf("observeScalar: no reference semantics for %T", m))
	}
}

// crossed reports whether pc enters a new cache line.
func (t *lineTracker) crossed(pc uint64) bool {
	line := pc & t.lineMask
	if t.have && line == t.last {
		return false
	}
	t.last, t.have = line, true
	return true
}

// applyScalar functionally warms the hierarchy and predictor with one record.
func applyScalar(f *funcWarm, d *trace.DynInst) {
	if f.cache {
		if f.lines.crossed(d.PC) {
			f.h.WarmInst(d.PC)
			f.work.WarmOps++
		}
		if d.IsMem() {
			f.h.WarmData(d.EffAddr, d.Op.Class() == isa.ClassStore)
			f.work.WarmOps++
		}
	}
	if f.bp && d.IsBranch() {
		f.u.Update(branchRecordOf(d))
		f.work.WarmOps++
	}
}

// logScalar appends one record's cache references and branch to the reverse
// method's region log.
func logScalar(r *reverse, d *trace.DynInst) {
	if r.spec.Cache {
		if r.lines.crossed(d.PC) {
			r.log.Mem = append(r.log.Mem, trace.MemRecord{PC: d.PC, NextPC: d.NextPC, Addr: d.PC, IsInstr: true})
			r.work.LoggedRecords++
		}
		if d.IsMem() {
			r.log.Mem = append(r.log.Mem, trace.MemRecord{
				PC: d.PC, NextPC: d.NextPC, Addr: d.EffAddr,
				IsStore: d.Op.Class() == isa.ClassStore,
			})
			r.work.LoggedRecords++
		}
	}
	if r.spec.BPred && d.IsBranch() {
		r.log.Branches = append(r.log.Branches, branchRecordOf(d))
		r.work.LoggedRecords++
	}
}
