package workload

import (
	"testing"

	"rsr/internal/funcsim"
	"rsr/internal/isa"
	"rsr/internal/trace"
)

func TestCustomDefaults(t *testing.T) {
	p, err := Custom(CustomConfig{})
	if err != nil {
		t.Fatal(err)
	}
	s := funcsim.New(p)
	if n, err := s.Skip(100_000); err != nil || n != 100_000 {
		t.Fatalf("run = %d, %v", n, err)
	}
}

func TestCustomValidation(t *testing.T) {
	bad := []CustomConfig{
		{DataWords: 3000}, // not a power of two
		{BranchBias: 9},   // out of range
		{CallDepth: 31},   // out of range
		{MemOpsPerIteration: -1},
		{ALUOpsPerIteration: 100},
	}
	for i, cfg := range bad {
		if _, err := Custom(cfg); err == nil {
			t.Errorf("config %d should fail: %+v", i, cfg)
		}
	}
}

// profileCustom measures stream characteristics of a custom workload.
func profileCustom(t *testing.T, cfg CustomConfig, n uint64) (takenRate float64, dataSpan uint64, calls uint64) {
	t.Helper()
	p, err := Custom(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := funcsim.New(p)
	var cond, taken uint64
	minA, maxA := ^uint64(0), uint64(0)
	_, err = runEach(s, n, func(d *trace.DynInst) {
		switch d.Op.Class() {
		case isa.ClassBranch:
			cond++
			if d.Taken {
				taken++
			}
		case isa.ClassCall:
			calls++
		case isa.ClassLoad, isa.ClassStore:
			if d.EffAddr >= regionA && d.EffAddr < regionS {
				if d.EffAddr < minA {
					minA = d.EffAddr
				}
				if d.EffAddr > maxA {
					maxA = d.EffAddr
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if cond == 0 {
		t.Fatal("no conditional branches")
	}
	return float64(taken) / float64(cond), maxA - minA, calls
}

func TestCustomBranchBiasKnob(t *testing.T) {
	// Bias 2/8 vs 6/8: taken rates must order accordingly. (The inner-loop
	// conditional is the only conditional branch, so rates track the knob.)
	lo, _, _ := profileCustom(t, CustomConfig{BranchBias: 2, Seed: 1}, 200_000)
	hi, _, _ := profileCustom(t, CustomConfig{BranchBias: 6, Seed: 1}, 200_000)
	if lo >= hi {
		t.Fatalf("bias knob inverted: lo=%.3f hi=%.3f", lo, hi)
	}
	if lo > 0.45 || hi < 0.55 {
		t.Fatalf("bias rates implausible: lo=%.3f hi=%.3f", lo, hi)
	}
}

func TestCustomWorkingSetKnob(t *testing.T) {
	_, small, _ := profileCustom(t, CustomConfig{DataWords: 1024, Seed: 2}, 200_000)
	_, large, _ := profileCustom(t, CustomConfig{DataWords: 262144, Seed: 2}, 400_000)
	if small >= large {
		t.Fatalf("working-set knob inverted: small=%d large=%d", small, large)
	}
	if small > 1024*8 {
		t.Fatalf("small working set spans %d bytes", small)
	}
}

func TestCustomCallDepthKnob(t *testing.T) {
	_, _, none := profileCustom(t, CustomConfig{CallDepth: 0, Seed: 3}, 100_000)
	_, _, deep := profileCustom(t, CustomConfig{CallDepth: 10, Seed: 3}, 100_000)
	if none != 0 {
		t.Fatalf("depth 0 should make no calls, made %d", none)
	}
	if deep == 0 {
		t.Fatal("depth 10 made no calls")
	}
}

func TestCustomDeterministic(t *testing.T) {
	cfg := CustomConfig{DataWords: 4096, BranchBias: 5, CallDepth: 3, Seed: 4}
	p1, _ := Custom(cfg)
	p2, _ := Custom(cfg)
	a, b := funcsim.New(p1), funcsim.New(p2)
	for i := 0; i < 50_000; i++ {
		da, e1 := step(a)
		db, e2 := step(b)
		if e1 != nil || e2 != nil {
			t.Fatal(e1, e2)
		}
		if da != db {
			t.Fatalf("divergence at %d", i)
		}
	}
}
