package regimen

import (
	"fmt"

	"rsr/internal/sampling"
	"rsr/internal/stats"
)

// measure runs one pass over the program through the sampling kernel: the
// configured warm-up method observes the cold skips and each region is
// simulated in detail. Regions must satisfy ValidateRegions and share the
// regimen's cluster size.
func measure(p Params, regions []Region) (*sampling.RunResult, error) {
	if err := ValidateRegions(regions, p.Total); err != nil {
		return nil, err
	}
	starts := make([]uint64, len(regions))
	for i, r := range regions {
		if r.Size != p.Regimen.ClusterSize {
			return nil, fmt.Errorf("regimen: region %d has size %d, not the cluster size %d", i, r.Size, p.Regimen.ClusterSize)
		}
		starts[i] = r.Start
	}
	return sampling.Measure(p.Program, p.Machine, starts, p.Regimen.ClusterSize, p.Warmup.New,
		sampling.Options{Cancel: p.Cancel})
}

// measured zips a pass's cluster results back onto their regions.
func measured(regions []Region, res *sampling.RunResult) []Measured {
	out := make([]Measured, len(res.Clusters))
	for i, c := range res.Clusters {
		out[i] = Measured{Region: regions[i], Result: c.Result}
	}
	return out
}

// cpisOf extracts the per-region CPI sample from measurements, skipping
// regions that retired nothing (the workload ended at their start) so a
// truncated tail cannot poison a CPI-space estimator.
func cpisOf(ms []Measured) []float64 {
	out := make([]float64, 0, len(ms))
	for _, m := range ms {
		if m.Result.Instructions > 0 {
			out = append(out, m.CPI())
		}
	}
	return out
}

// statsPoint is a zero-width interval around a point estimate, for
// estimators with no sampling-theory error bound.
func statsPoint(v float64) stats.Interval { return stats.Interval{Mean: v} }

// ipcFromCPI converts a CPI-space interval into the package's Estimate.
func ipcFromCPI(ci stats.Interval) Estimate {
	e := Estimate{CI: ci, Space: "CPI"}
	if ci.Mean != 0 {
		e.IPC = 1 / ci.Mean
	}
	return e
}
