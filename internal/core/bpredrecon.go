package core

import (
	"rsr/internal/bpred"
	"rsr/internal/isa"
	"rsr/internal/trace"
)

// PredReconStats summarizes branch-predictor reconstruction for one region.
type PredReconStats struct {
	LoggedBranches   uint64
	ScannedRecords   uint64 // log records consumed by on-demand scanning
	CountersExact    uint64 // entries pinned uniquely by their history
	CountersInferred uint64 // entries set by the bias/middle-state rule
	BTBInstalled     uint64
	RASInstalled     uint64
	Probes           uint64 // predictions that triggered scanning
}

// ReconPredictor wraps a bpred.Unit with §3.2 on-demand reverse
// reconstruction. After a skip region, call BeginRegion with the region's
// branch log; during the next cluster the timing model probes Predict as
// usual, and the first probe of a not-yet-reconstructed entry consumes the
// reverse log until that entry is resolved — reconstructing every other
// entry it passes, so the log is scanned at most once per region.
type ReconPredictor struct {
	unit *bpred.Unit

	log   []trace.BranchRecord // selected suffix, oldest first
	ghrAt []uint64             // GHR before each suffix record (conditionals)
	pos   int                  // next reverse index to scan; -1 when exhausted

	dirMap   []StateMap
	dirDone  []bool
	touched  []int
	btbDone  []bool
	finished bool

	// noInference, when set, leaves unresolved entries stale instead of
	// applying the bias/middle-state rule — an ablation of the paper's
	// Figure 3 inference.
	noInference bool

	stats PredReconStats
}

// SetNoInference disables the weak-form/middle-state inference for entries
// whose history does not pin the counter exactly (ablation support).
func (p *ReconPredictor) SetNoInference(v bool) { p.noInference = v }

// NewReconPredictor wraps unit.
func NewReconPredictor(unit *bpred.Unit) *ReconPredictor {
	return &ReconPredictor{
		unit:     unit,
		dirMap:   make([]StateMap, unit.Dir.Entries()),
		dirDone:  make([]bool, unit.Dir.Entries()),
		btbDone:  make([]bool, unit.BTB.Entries()),
		finished: true, // nothing to reconstruct until the first region
	}
}

// Unit returns the wrapped prediction hardware.
func (p *ReconPredictor) Unit() *bpred.Unit { return p.unit }

// Stats returns the current region's reconstruction counters.
func (p *ReconPredictor) Stats() PredReconStats { return p.stats }

// BeginRegion installs the skip-region branch log and performs the eager
// steps of §3.2: the global history register is rebuilt from the last n
// outcomes of the region, the RAS is rebuilt by the reverse push/pop counter
// algorithm, and per-entry possible-state tracking is reset. percent selects
// how much of the newest part of the log the on-demand scan may consume.
func (p *ReconPredictor) BeginRegion(fullLog []trace.BranchRecord, percent int) {
	if percent < 0 {
		percent = 0
	}
	if percent > 100 {
		percent = 100
	}
	n := len(fullLog)
	start := n - n*percent/100
	p.log = fullLog[start:]
	p.pos = len(p.log) - 1
	p.finished = len(p.log) == 0

	for i := range p.dirMap {
		p.dirMap[i] = IdentityMap
		p.dirDone[i] = false
	}
	for i := range p.btbDone {
		p.btbDone[i] = false
	}
	p.touched = p.touched[:0]
	p.stats = PredReconStats{LoggedBranches: uint64(n)}

	// Forward pass over the full log: compute the GHR before every suffix
	// conditional (their table indices depend on it) and the region-final
	// GHR. Only conditional branches shift history, matching Unit.Update.
	if cap(p.ghrAt) < len(p.log) {
		p.ghrAt = make([]uint64, len(p.log))
	}
	p.ghrAt = p.ghrAt[:len(p.log)]
	ghr := p.unit.Dir.GHR() // stale = value at region start
	mask := uint64(1)<<uint(p.unit.Dir.HistoryBits()) - 1
	for i := 0; i < n; i++ {
		r := &fullLog[i]
		if r.Class != isa.ClassBranch {
			if i >= start {
				p.ghrAt[i-start] = 0
			}
			continue
		}
		if i >= start {
			p.ghrAt[i-start] = ghr
		}
		ghr = (ghr << 1) & mask
		if r.Taken {
			ghr |= 1
		}
	}
	p.unit.Dir.SetGHR(ghr)

	p.reconstructRAS()
}

// reconstructRAS implements the reverse counter algorithm: scanning the
// suffix newest-to-oldest, a pop increments the counter; a push with counter
// zero lands at the end (bottom) of the stack; otherwise a push cancels a
// pop. Reconstruction stops when the stack is full.
func (p *ReconPredictor) reconstructRAS() {
	depth := p.unit.RAS.Depth()
	fills := make([]uint64, 0, depth) // youngest first
	counter := 0
	for i := len(p.log) - 1; i >= 0 && len(fills) < depth; i-- {
		r := &p.log[i]
		switch {
		case r.IsReturn():
			counter++
		case r.IsCall():
			if counter == 0 {
				fills = append(fills, r.PC+isa.InstBytes)
			} else {
				counter--
			}
		}
	}
	p.unit.RAS.Clear()
	for i := len(fills) - 1; i >= 0; i-- {
		p.unit.RAS.Push(fills[i])
	}
	p.stats.RASInstalled = uint64(len(fills))
}

// scanStep consumes one log record (reverse order), applying BTB and
// direction-table reconstruction.
func (p *ReconPredictor) scanStep() {
	r := &p.log[p.pos]
	p.pos--
	p.stats.ScannedRecords++

	// Mirror the forward training policy exactly: conditional-taken
	// branches, jumps, and calls install BTB entries; returns do not (they
	// are predicted through the RAS).
	if r.Taken && r.Class != isa.ClassReturn {
		bidx := p.unit.BTB.Index(r.PC)
		if !p.btbDone[bidx] {
			// First reverse occurrence = last forward update = final state.
			p.unit.BTB.Update(r.PC, r.NextPC)
			p.btbDone[bidx] = true
			p.stats.BTBInstalled++
		}
	}
	if r.Class == isa.ClassBranch {
		idx := p.unit.Dir.IndexFor(r.PC, p.ghrAt[p.pos+1])
		if !p.dirDone[idx] {
			if p.dirMap[idx] == IdentityMap {
				p.touched = append(p.touched, idx)
			}
			p.dirMap[idx] = ExtendMap(p.dirMap[idx], r.Taken)
			if res := Resolve(p.dirMap[idx]); res.Exact {
				p.unit.Dir.SetCounter(idx, res.Value)
				p.dirDone[idx] = true
				p.stats.CountersExact++
			}
		}
	}
	if p.pos < 0 {
		p.finalize()
	}
}

// finalize applies the a-priori inference to every touched, unresolved entry
// once the history has been consumed: biased histories yield the weak form,
// three candidates the middle state; untouched entries stay stale.
func (p *ReconPredictor) finalize() {
	for _, idx := range p.touched {
		if p.dirDone[idx] {
			continue
		}
		if res := Resolve(p.dirMap[idx]); res.Known && !p.noInference {
			p.unit.Dir.SetCounter(idx, res.Value)
			p.stats.CountersInferred++
		}
		p.dirDone[idx] = true
	}
	p.finished = true
}

// scanUntil consumes the reverse log until done reports true or the log is
// exhausted.
func (p *ReconPredictor) scanUntil(done func() bool) {
	p.stats.Probes++
	for !p.finished && !done() {
		p.scanStep()
	}
}

// Predict probes the predictor, reconstructing the probed entries on demand
// first (§3.2: "If not, the entry is first reconstructed before hot
// execution continues").
func (p *ReconPredictor) Predict(pc uint64, class isa.Class) bpred.Prediction {
	if !p.finished {
		switch class {
		case isa.ClassBranch:
			idx := p.unit.Dir.Index(pc)
			bidx := p.unit.BTB.Index(pc)
			if !p.dirDone[idx] || !p.btbDone[bidx] {
				p.scanUntil(func() bool { return p.dirDone[idx] && p.btbDone[bidx] })
			}
		case isa.ClassJump, isa.ClassCall, isa.ClassJumpIndirect:
			bidx := p.unit.BTB.Index(pc)
			if !p.btbDone[bidx] {
				p.scanUntil(func() bool { return p.btbDone[bidx] })
			}
		}
		// Returns use the RAS, which was reconstructed eagerly.
	}
	return p.unit.Predict(pc, class)
}

// Update trains the wrapped unit and pins the trained entries as live: a
// later reconstruction scan must not overwrite newer in-cluster state with
// older skip-region state.
func (p *ReconPredictor) Update(r trace.BranchRecord) {
	if !p.finished {
		if r.Class == isa.ClassBranch {
			p.dirDone[p.unit.Dir.Index(r.PC)] = true
		}
		if r.Taken && r.Class != isa.ClassReturn {
			p.btbDone[p.unit.BTB.Index(r.PC)] = true
		}
	}
	p.unit.Update(r)
}

var _ bpred.Predictor = (*ReconPredictor)(nil)
