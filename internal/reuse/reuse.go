// Package reuse implements the profiling passes behind the MRRL and BLRL
// warm-up methods the paper compares against (§2):
//
//   - MRRL (Haskins & Skadron, ISPASS 2003) profiles each cluster /
//     pre-cluster pair's memory-reference reuse latencies and warms the
//     number of pre-cluster instructions that covers a given percentile of
//     them.
//   - BLRL (Eeckhout et al., The Computer Journal 2005) refines MRRL by
//     considering only references that originate in the cluster and whose
//     previous access falls in the pre-cluster ("boundary line" reuses), so
//     warm-up covers exactly the state the cluster will consume.
//
// Both techniques pin the cluster locations: the windows computed here are
// valid only for the cluster starts they were profiled with — the contrast
// the paper draws with Reverse State Reconstruction, which needs no
// profiling and lets cluster positions move freely.
package reuse

import (
	"errors"
	"fmt"
	"sort"

	"rsr/internal/funcsim"
	"rsr/internal/prog"
	"rsr/internal/trace"
)

// Kind selects the profiling rule.
type Kind uint8

const (
	// MRRL considers reuse latencies of every reference in the cluster /
	// pre-cluster pair.
	MRRL Kind = iota
	// BLRL considers only cluster references whose previous access lies in
	// the pre-cluster.
	BLRL
)

func (k Kind) String() string {
	if k == BLRL {
		return "BLRL"
	}
	return "MRRL"
}

// Windows holds the per-skip-region warm-up windows, in instructions before
// each cluster start.
type Windows struct {
	Kind Kind
	// PerRegion[i] is the warm window for the skip region preceding cluster
	// i (capped at the region length).
	PerRegion []uint64
	// ProfiledRefs is the number of memory references inspected.
	ProfiledRefs uint64
}

// lineShift aggregates reuse at 64-byte cache-line granularity, matching the
// structures being warmed.
const lineShift = 6

// Profile computes warm-up windows for the given cluster starts. percentile
// (0,100] selects how much of the reuse distribution each window must cover
// (the papers' "percentage warm-up"). One functional pass over the first
// `total` instructions records, per region, the distribution of distances
// from each qualifying reference back to the previous access of its line.
func Profile(p *prog.Program, starts []uint64, clusterSize uint64, total uint64, percentile float64, kind Kind) (*Windows, error) {
	if percentile <= 0 || percentile > 100 {
		return nil, errors.New("reuse: percentile must be in (0,100]")
	}
	if len(starts) == 0 {
		return nil, errors.New("reuse: no cluster starts")
	}
	for i := 1; i < len(starts); i++ {
		if starts[i] <= starts[i-1] {
			return nil, errors.New("reuse: cluster starts must be ascending")
		}
	}

	fs := funcsim.New(p)
	lastSeq := make(map[uint64]uint64) // line -> last access seq
	w := &Windows{Kind: kind, PerRegion: make([]uint64, len(starts))}

	// distances[i] collects, for region i, how far before the cluster start
	// the previous access of each qualifying reference lies.
	distances := make([][]uint64, len(starts))

	region := 0
	observe := func(ds []trace.DynInst) {
		for i := 0; i < len(ds) && region < len(starts); i++ {
			d := &ds[i]
			start := starts[region]
			end := start + clusterSize
			seq := d.Seq
			isMem := d.IsMem()
			var line uint64
			if isMem {
				line = d.EffAddr >> lineShift
			}
			inCluster := seq >= start && seq < end
			inPair := seq < end // everything before the cluster end belongs to the pair

			if isMem && inPair {
				if prev, ok := lastSeq[line]; ok {
					w.ProfiledRefs++
					switch kind {
					case MRRL:
						// Any reuse within the pair whose earlier access
						// precedes the cluster start: warming from that earlier
						// access would make this reference hit.
						if prev < start && (inCluster || seq < start) {
							distances[region] = append(distances[region], start-prev)
						}
					case BLRL:
						// Only cluster references reaching into the pre-cluster.
						if inCluster && prev < start {
							distances[region] = append(distances[region], start-prev)
						}
					}
				}
			}
			if isMem {
				lastSeq[line] = seq
			}
			if seq+1 == end {
				region++
			}
		}
	}

	last := starts[len(starts)-1] + clusterSize
	if last > total {
		return nil, fmt.Errorf("reuse: clusters extend past total (%d > %d)", last, total)
	}
	ran, err := fs.RunBatches(last, make([]trace.DynInst, funcsim.BatchSize), observe)
	if err != nil {
		return nil, fmt.Errorf("reuse: profiling: %w", err)
	}
	if ran != last {
		return nil, errors.New("reuse: workload halted during profiling")
	}

	prevEnd := uint64(0)
	for i := range starts {
		regionLen := starts[i] - prevEnd
		w.PerRegion[i] = percentileOf(distances[i], percentile)
		if w.PerRegion[i] > regionLen {
			w.PerRegion[i] = regionLen
		}
		prevEnd = starts[i] + clusterSize
	}
	return w, nil
}

// percentileOf returns the distance covering pct percent of ds (0 when
// empty).
func percentileOf(ds []uint64, pct float64) uint64 {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	idx := int(float64(len(ds))*pct/100) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(ds) {
		idx = len(ds) - 1
	}
	return ds[idx]
}
