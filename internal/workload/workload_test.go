package workload

import (
	"testing"

	"rsr/internal/funcsim"
	"rsr/internal/isa"
	"rsr/internal/trace"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{"ammp", "art", "gcc", "mcf", "parser", "perl", "twolf", "vortex", "vpr"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("names = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("names = %v, want %v", got, want)
		}
	}
}

func TestByName(t *testing.T) {
	w, err := ByName("mcf")
	if err != nil || w.Name != "mcf" {
		t.Fatalf("ByName(mcf) = %v, %v", w, err)
	}
	if _, err := ByName("nonesuch"); err == nil {
		t.Fatal("unknown workload should error")
	}
}

// profile runs n dynamic instructions and aggregates stream statistics.
type profile struct {
	n           uint64
	branches    uint64
	condTaken   uint64
	cond        uint64
	loads       uint64
	stores      uint64
	calls       uint64
	rets        uint64
	dataMin     uint64
	dataMax     uint64
	distinctPCs map[uint64]struct{}
}

func run(t *testing.T, name string, n uint64) *profile {
	t.Helper()
	w, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	s := funcsim.New(w.Build())
	p := &profile{dataMin: ^uint64(0), distinctPCs: make(map[uint64]struct{})}
	ran, err := runEach(s, n, func(d *trace.DynInst) {
		p.n++
		p.distinctPCs[d.PC] = struct{}{}
		switch d.Op.Class() {
		case isa.ClassBranch:
			p.branches++
			p.cond++
			if d.Taken {
				p.condTaken++
			}
		case isa.ClassJump, isa.ClassJumpIndirect:
			p.branches++
		case isa.ClassCall:
			p.branches++
			p.calls++
		case isa.ClassReturn:
			p.branches++
			p.rets++
		case isa.ClassLoad:
			p.loads++
			if d.EffAddr < p.dataMin {
				p.dataMin = d.EffAddr
			}
			if d.EffAddr > p.dataMax {
				p.dataMax = d.EffAddr
			}
		case isa.ClassStore:
			p.stores++
			if d.EffAddr < p.dataMin {
				p.dataMin = d.EffAddr
			}
			if d.EffAddr > p.dataMax {
				p.dataMax = d.EffAddr
			}
		}
		return
	})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if ran != n {
		t.Fatalf("%s halted after %d instructions; workloads must run forever", name, ran)
	}
	return p
}

// runEach executes up to n instructions through RunBatches, calling fn for
// every committed record in order.
func runEach(s *funcsim.Sim, n uint64, fn func(d *trace.DynInst)) (uint64, error) {
	return s.RunBatches(n, make([]trace.DynInst, funcsim.BatchSize), func(ds []trace.DynInst) {
		for i := range ds {
			fn(&ds[i])
		}
	})
}

// step executes one instruction through RunBatch with a one-element buffer.
func step(s *funcsim.Sim) (trace.DynInst, error) {
	var buf [1]trace.DynInst
	_, err := s.RunBatch(buf[:])
	return buf[0], err
}

func TestAllWorkloadsRunForever(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			run(t, w.Name, 300000)
		})
	}
}

func TestAllWorkloadsDeterministic(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			s1 := funcsim.New(w.Build())
			s2 := funcsim.New(w.Build())
			for i := 0; i < 50000; i++ {
				d1, e1 := step(s1)
				d2, e2 := step(s2)
				if e1 != nil || e2 != nil {
					t.Fatal(e1, e2)
				}
				if d1 != d2 {
					t.Fatalf("divergence at %d", i)
				}
			}
		})
	}
}

func TestMcfWorkingSetLarge(t *testing.T) {
	p := run(t, "mcf", 2000000)
	if span := p.dataMax - p.dataMin; span < 3<<20 {
		t.Fatalf("mcf data span = %d, want ≥ 3 MiB", span)
	}
}

func TestParserBranchEntropy(t *testing.T) {
	p := run(t, "parser", 500000)
	rate := float64(p.condTaken) / float64(p.cond)
	if rate < 0.30 || rate > 0.70 {
		t.Fatalf("parser conditional taken rate = %.2f, want near 0.5", rate)
	}
	if float64(p.branches)/float64(p.n) < 0.15 {
		t.Fatalf("parser should be branchy: %d/%d", p.branches, p.n)
	}
}

func TestPerlCallDepth(t *testing.T) {
	p := run(t, "perl", 500000)
	if p.calls == 0 || p.rets == 0 {
		t.Fatal("perl must perform calls and returns")
	}
	if p.calls < p.n/100 {
		t.Fatalf("perl call density too low: %d calls in %d", p.calls, p.n)
	}
	// Calls and returns must balance over a long run.
	diff := int64(p.calls) - int64(p.rets)
	if diff < 0 {
		diff = -diff
	}
	if diff > 20 {
		t.Fatalf("calls %d and returns %d unbalanced", p.calls, p.rets)
	}
}

func TestGccCodeFootprint(t *testing.T) {
	p := run(t, "gcc", 2000000)
	codeBytes := uint64(len(p.distinctPCs)) * isa.InstBytes
	if codeBytes < 24<<10 {
		t.Fatalf("gcc live code footprint = %d bytes, want tens of KiB", codeBytes)
	}
}

func TestTwolfSmallWorkingSet(t *testing.T) {
	p := run(t, "twolf", 500000)
	if span := p.dataMax - p.dataMin; span > 64<<10 {
		t.Fatalf("twolf data span = %d, want small", span)
	}
}

func TestFPWorkloadsTouchFPUnits(t *testing.T) {
	for _, name := range []string{"ammp", "art", "vpr"} {
		w, _ := ByName(name)
		s := funcsim.New(w.Build())
		fp := 0
		runEach(s, 200000, func(d *trace.DynInst) {
			switch d.Op.Class() {
			case isa.ClassFPALU, isa.ClassFPMul, isa.ClassFPDiv:
				fp++
			}
		})
		if fp == 0 {
			t.Errorf("%s executed no FP operations", name)
		}
	}
}

func TestMemoryDensityReasonable(t *testing.T) {
	// Every workload must generate enough memory traffic for cache warm-up
	// to matter.
	for _, w := range All() {
		p := run(t, w.Name, 300000)
		memRate := float64(p.loads+p.stores) / float64(p.n)
		if memRate < 0.05 {
			t.Errorf("%s: memory reference density %.3f too low", w.Name, memRate)
		}
	}
}

func TestVortexDispatchSpread(t *testing.T) {
	// The indirect dispatch should reach many distinct method entry PCs.
	w, _ := ByName("vortex")
	s := funcsim.New(w.Build())
	targets := map[uint64]struct{}{}
	runEach(s, 500000, func(d *trace.DynInst) {
		if d.Op == isa.OpJr {
			targets[d.NextPC] = struct{}{}
		}
	})
	if len(targets) < 32 {
		t.Fatalf("vortex reached only %d distinct methods", len(targets))
	}
}
