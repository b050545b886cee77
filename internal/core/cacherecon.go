package core

import (
	"rsr/internal/mem"
	"rsr/internal/trace"
)

// CacheReconStats summarizes one reverse cache-reconstruction pass.
type CacheReconStats struct {
	// LoggedRefs is the number of memory records in the full skip-region log.
	LoggedRefs uint64
	// ScannedRefs is how many records the chosen percentage covered.
	ScannedRefs uint64
	// Applied counts state-mutating reconstruction operations across the
	// three caches; the remainder of the scanned references were isolated as
	// ineffectual without profiling.
	Applied uint64
}

// ReconstructCaches performs the §3.1 reverse pass: the newest `percent` of
// the logged memory references are scanned newest-to-oldest and offered to
// the L1 of their stream and to the L2 (the paper applies reconstruction
// updates to both levels directly). Reconstructed bits are cleared first;
// the caches' stale contents from the previous cluster remain as the
// below-reconstructed LRU tail.
func ReconstructCaches(h *mem.Hierarchy, log []trace.MemRecord, percent int) CacheReconStats {
	if percent < 0 {
		percent = 0
	}
	if percent > 100 {
		percent = 100
	}
	h.L1I.BeginReconstruction()
	h.L1D.BeginReconstruction()
	h.L2.BeginReconstruction()

	n := len(log)
	start := n - n*percent/100
	st := CacheReconStats{LoggedRefs: uint64(n), ScannedRefs: uint64(n - start)}
	for i := n - 1; i >= start; i-- {
		r := &log[i]
		if r.IsInstr {
			if h.L1I.ReconstructRef(r.Addr, false) {
				st.Applied++
			}
		} else {
			if h.L1D.ReconstructRef(r.Addr, r.IsStore) {
				st.Applied++
			}
		}
		if h.L2.ReconstructRef(r.Addr, !r.IsInstr && r.IsStore) {
			st.Applied++
		}
	}
	return st
}
