package sampling

import (
	"fmt"
	"reflect"
	"testing"

	"rsr/internal/bpred"
	"rsr/internal/funcsim"
	"rsr/internal/isa"
	"rsr/internal/mem"
	"rsr/internal/ooo"
	"rsr/internal/prog"
	"rsr/internal/trace"
	"rsr/internal/warmup"
)

// syntheticWorkload builds an endless loop with memory traffic, data-dependent
// branches, and call/return pairs — enough microarchitectural variety to
// exercise every warm-up method without importing the workload package.
func syntheticWorkload() *prog.Program {
	b := prog.NewBuilder("synthetic")
	b.Li(1, int64(prog.DataBase))
	b.Li(2, 1)
	b.Label("loop")
	b.Op3(isa.OpAdd, 3, 3, 2)
	b.Shli(4, 3, 3)
	b.Andi(4, 4, 0x3FF8)
	b.Op3(isa.OpAdd, 5, 1, 4)
	b.St(5, 3, 0)
	b.Ld(6, 5, 0)
	b.Op3(isa.OpMul, 7, 6, 3)
	b.Andi(8, 3, 1)
	b.Branch(isa.OpBeq, 8, 0, "even")
	b.Op3(isa.OpXor, 9, 9, 7)
	b.Label("even")
	b.Call(31, "leaf")
	b.Andi(10, 3, 63)
	b.Branch(isa.OpBne, 10, 0, "loop")
	b.Jmp("loop")
	b.Label("leaf")
	b.Addi(11, 11, 1)
	b.Ret(31)
	return b.MustBuild()
}

// runSampledScalar is a reference controller that moves one instruction at a
// time: every skipped record goes through RunBatch and ObserveSkipBatch as a
// one-element batch, and the timing model pulls its records one by one. The
// batched RunSampled must produce identical results (modulo wall-clock), so
// the comparison pins that results do not depend on the batch size. The
// per-record semantics of each layer are pinned by the funcsim and warmup
// oracles.
func runSampledScalar(p *prog.Program, m MachineConfig, reg Regimen, total uint64, seed int64, spec warmup.Spec) (*RunResult, error) {
	starts, err := Positions(total, reg, seed)
	if err != nil {
		return nil, err
	}
	hier := mem.NewHierarchy(m.Hier)
	unit := bpred.NewUnit(m.Pred)
	method := spec.New(hier, unit)
	sim := ooo.New(m.CPU, hier, method.Predictor())
	fs := funcsim.New(p)

	res := &RunResult{Method: method.Name()}
	var pos uint64
	for _, start := range starts {
		skip := start - pos
		method.BeginSkip(skip)
		var ran uint64
		for ran < skip {
			d, ok, err := stepOne(fs)
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
			method.ObserveSkipBatch([]trace.DynInst{d})
			ran++
		}
		if ran != skip {
			return nil, fmt.Errorf("workload halted after %d skipped instructions", ran)
		}
		method.EndSkip()
		res.FuncInstructions += ran
		pos += ran

		var pullErr error
		r := sim.Simulate(reg.ClusterSize, func() (trace.DynInst, bool) {
			d, ok, err := stepOne(fs)
			pullErr = err
			return d, ok
		})
		if pullErr != nil {
			return nil, pullErr
		}
		res.FuncInstructions += r.Instructions
		res.HotInstructions += r.Instructions
		res.Clusters = append(res.Clusters, ClusterStat{Start: start, Result: r})
		pos += r.Instructions
	}
	res.Work = method.Work()
	return res, nil
}

// stepOne executes one instruction through RunBatch with a one-element
// buffer. ok is false once the program has halted or faulted.
func stepOne(fs *funcsim.Sim) (d trace.DynInst, ok bool, err error) {
	var buf [1]trace.DynInst
	n, err := fs.RunBatch(buf[:])
	return buf[0], n == 1 && err == nil, err
}

// TestRunSampledMatchesScalarReference is the controller-level equivalence
// property: for every warm-up method in the paper's matrix, the batched
// sampled run must reproduce the scalar reference result exactly — clusters,
// work counters, and instruction accounting.
func TestRunSampledMatchesScalarReference(t *testing.T) {
	p := syntheticWorkload()
	m := DefaultMachine()
	reg := Regimen{ClusterSize: 500, NumClusters: 8}
	const total, seed = 80_000, 7
	for _, spec := range warmup.Matrix() {
		spec := spec
		t.Run(spec.Label(), func(t *testing.T) {
			want, err := runSampledScalar(p, m, reg, total, seed, spec)
			if err != nil {
				t.Fatal(err)
			}
			got, err := RunSampled(p, m, reg, total, seed, spec)
			if err != nil {
				t.Fatal(err)
			}
			want.Elapsed, got.Elapsed = 0, 0
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("batched run diverged from scalar reference:\nscalar:  %+v\nbatched: %+v", want, got)
			}
		})
	}
}

// TestRunFullMatchesScalarReference pins the full-run path the same way.
func TestRunFullMatchesScalarReference(t *testing.T) {
	p := syntheticWorkload()
	m := DefaultMachine()
	const total = 20_000

	hier := mem.NewHierarchy(m.Hier)
	unit := bpred.NewUnit(m.Pred)
	sim := ooo.New(m.CPU, hier, unit)
	fs := funcsim.New(p)
	var pullErr error
	want := sim.Simulate(total, func() (trace.DynInst, bool) {
		d, ok, err := stepOne(fs)
		pullErr = err
		return d, ok
	})
	if pullErr != nil {
		t.Fatal(pullErr)
	}

	got, err := RunFull(p, m, total)
	if err != nil {
		t.Fatal(err)
	}
	if want != got.Result {
		t.Fatalf("full run diverged:\nscalar:  %+v\nbatched: %+v", want, got.Result)
	}
}
