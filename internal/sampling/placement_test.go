package sampling

import (
	"strings"
	"testing"

	"rsr/internal/warmup"
	"rsr/internal/workload"
)

func TestPositionsInvariants(t *testing.T) {
	cases := []struct {
		name  string
		total uint64
		reg   Regimen
	}{
		{"typical", 200_000, Regimen{ClusterSize: 2000, NumClusters: 10}},
		{"uneven-strata", 1_000_003, Regimen{ClusterSize: 1000, NumClusters: 7}},
		{"tight", 20_000, Regimen{ClusterSize: 2000, NumClusters: 9}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(0); seed < 20; seed++ {
				starts, err := Positions(tc.total, tc.reg, seed)
				if err != nil {
					t.Fatal(err)
				}
				if err := CheckPlacement(starts, tc.total, tc.reg); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
			}
		})
	}
}

func TestPositionsZeroSlack(t *testing.T) {
	// Strata exactly the cluster size: no randomness left, every start must
	// sit at its stratum boundary for every seed.
	reg := Regimen{ClusterSize: 2000, NumClusters: 10}
	for seed := int64(0); seed < 5; seed++ {
		starts, err := Positions(20_000, reg, seed)
		if err != nil {
			t.Fatal(err)
		}
		if err := CheckPlacement(starts, 20_000, reg); err != nil {
			t.Fatal(err)
		}
		for i, s := range starts {
			if s != uint64(i)*2000 {
				t.Fatalf("seed %d: zero-slack start %d = %d, want %d", seed, i, s, i*2000)
			}
		}
	}
}

func TestPositionsSingleCluster(t *testing.T) {
	reg := Regimen{ClusterSize: 5000, NumClusters: 1}
	starts, err := Positions(100_000, reg, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(starts) != 1 {
		t.Fatalf("starts = %v", starts)
	}
	if err := CheckPlacement(starts, 100_000, reg); err != nil {
		t.Fatal(err)
	}
	// The single stratum is the whole workload; its cluster must still fit.
	if starts[0]+reg.ClusterSize > 100_000 {
		t.Fatalf("cluster [%d,%d) exceeds workload", starts[0], starts[0]+reg.ClusterSize)
	}
}

func TestCheckPlacementRejects(t *testing.T) {
	reg := Regimen{ClusterSize: 1000, NumClusters: 4}
	const total = 40_000 // stratum = 10_000
	cases := []struct {
		name   string
		starts []uint64
		want   string
	}{
		{"count", []uint64{0, 10_000}, "starts for"},
		{"outside-stratum", []uint64{0, 5_000, 15_000, 30_000}, "outside its stratum"},
		{"unsorted", []uint64{9_500, 10_000, 20_000, 30_000}, "outside its stratum"},
	}
	for _, tc := range cases {
		err := CheckPlacement(tc.starts, total, reg)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
	// A regimen that fails Validate fails CheckPlacement with the same error.
	if err := CheckPlacement(nil, 100, Regimen{ClusterSize: 1000, NumClusters: 4}); err == nil {
		t.Fatal("invalid regimen accepted")
	}
}

// TestMeasureRejectsUnsortedAndOverlappingStarts: the kernel owns no
// placement, so a start behind the previous cluster's end would wrap the
// uint64 skip distance; Measure must refuse it before simulating anything.
func TestMeasureRejectsUnsortedAndOverlappingStarts(t *testing.T) {
	w, err := workload.ByName("parser")
	if err != nil {
		t.Fatal(err)
	}
	p := w.Build()
	spec, err := warmup.SpecByLabel("R$BP (20%)")
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]uint64{
		"unsorted":    {20_000, 10_000},
		"overlapping": {10_000, 11_999},
		"duplicate":   {0, 0},
	}
	for name, starts := range cases {
		res, err := Measure(p, DefaultMachine(), starts, 2000, spec.New, Options{})
		if err == nil || !strings.Contains(err.Error(), "behind the simulated position") {
			t.Errorf("%s: err = %v, want a behind-the-simulated-position error", name, err)
		}
		if res != nil {
			t.Errorf("%s: result escaped a rejected plan", name)
		}
	}
	// Back-to-back clusters (each starting exactly where the last ends) are
	// valid.
	if _, err := Measure(p, DefaultMachine(), []uint64{10_000, 12_000}, 2000, spec.New, Options{}); err != nil {
		t.Fatalf("adjacent clusters rejected: %v", err)
	}
}
