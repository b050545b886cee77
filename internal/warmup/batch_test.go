package warmup

import (
	"reflect"
	"testing"

	"rsr/internal/funcsim"
	"rsr/internal/isa"
	"rsr/internal/prog"
	"rsr/internal/trace"
)

// genRecords produces a realistic committed-instruction stream — loads,
// stores, taken and not-taken branches, calls, returns, indirect jumps — by
// running a synthetic endless loop through the functional simulator.
func genRecords(t testing.TB, n int) []trace.DynInst {
	t.Helper()
	b := prog.NewBuilder("gen")
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
	b.Branch(isa.OpBeq, 8, 0, "even") // taken half the time
	b.Op3(isa.OpXor, 9, 9, 7)
	b.Label("even")
	b.Call(31, "leaf")
	b.Call(30, "leaf2")
	b.Andi(10, 3, 63)
	b.Branch(isa.OpBne, 10, 0, "loop") // mostly taken
	b.Jmp("loop")
	b.Label("leaf")
	b.Addi(11, 11, 1)
	b.Ret(31)
	b.Label("leaf2")
	b.Addi(12, 12, 1)
	b.Jr(30)
	s := funcsim.New(b.MustBuild())
	buf := make([]trace.DynInst, n)
	k, err := s.RunBatch(buf)
	if err != nil {
		t.Fatal(err)
	}
	if k != n {
		t.Fatalf("generator halted after %d records", k)
	}
	return buf
}

// feedScalar drives m with one region through the per-record reference
// semantics of oracle_test.go.
func feedScalar(m Method, ds []trace.DynInst) {
	m.BeginSkip(uint64(len(ds)))
	for i := range ds {
		observeScalar(m, &ds[i])
	}
	m.EndSkip()
}

// feedBatched drives m with one region split into chunk-sized batches.
func feedBatched(m Method, ds []trace.DynInst, chunk int) {
	m.BeginSkip(uint64(len(ds)))
	for o := 0; o < len(ds); o += chunk {
		e := o + chunk
		if e > len(ds) {
			e = len(ds)
		}
		m.ObserveSkipBatch(ds[o:e])
	}
	m.EndSkip()
}

// compareMethods asserts the two driven methods left identical state behind.
func compareMethods(t *testing.T, ms, mb Method, hsState, hbState, usState, ubState interface{}) {
	t.Helper()
	if ms.Work() != mb.Work() {
		t.Fatalf("work diverged:\nscalar:  %+v\nbatched: %+v", ms.Work(), mb.Work())
	}
	if !reflect.DeepEqual(hsState, hbState) {
		t.Fatal("hierarchy state diverged between scalar and batched observation")
	}
	if !reflect.DeepEqual(usState, ubState) {
		t.Fatal("predictor state diverged between scalar and batched observation")
	}
}

// TestBatchScalarEquivalence pins the Method interface contract: for every
// spec in the paper's matrix and any batch split, ObserveSkipBatch must leave
// exactly the state that the per-record reference, observeScalar, would.
func TestBatchScalarEquivalence(t *testing.T) {
	recs := genRecords(t, 24_000)
	half := len(recs) / 2
	regions := [][]trace.DynInst{recs[:half], recs[half:]}
	probes := []uint64{0x400000, 0x400004, 0x400040, 0x400100}

	for _, spec := range Matrix() {
		spec := spec
		t.Run(spec.Label(), func(t *testing.T) {
			for _, chunk := range []int{1, 7, 256, 1024} {
				hs, us := testEnv()
				ms := spec.New(hs, us)
				hb, ub := testEnv()
				mb := spec.New(hb, ub)
				for _, reg := range regions {
					feedScalar(ms, reg)
					feedBatched(mb, reg, chunk)
				}
				// Reverse predictor reconstruction is on-demand: probe both
				// sides identically so lazily repaired state materializes.
				if spec.BPred {
					for _, pc := range probes {
						ps := ms.Predictor().Predict(pc, isa.ClassBranch)
						pb := mb.Predictor().Predict(pc, isa.ClassBranch)
						if ps != pb {
							t.Fatalf("chunk %d: prediction at %#x diverged", chunk, pc)
						}
					}
				}
				compareMethods(t, ms, mb, hs.State(), hb.State(), us.State(), ub.State())
				if spec.Kind == KindReverse {
					ls, lb := ms.(*reverse).log, mb.(*reverse).log
					if !reflect.DeepEqual(ls, lb) {
						t.Fatalf("chunk %d: skip logs diverged", chunk)
					}
				}
			}
		})
	}
}

// TestWindowedBatchScalarEquivalence covers the profiled-window (MRRL/BLRL)
// method, which is not part of Matrix but shares the tail-batching helper.
func TestWindowedBatchScalarEquivalence(t *testing.T) {
	recs := genRecords(t, 12_000)
	windows := []uint64{3000, 0, 123, 1 << 20} // mixed: partial, none, odd, oversize
	regions := [][]trace.DynInst{recs[:4000], recs[4000:6000], recs[6000:9000], recs[9000:]}
	for _, chunk := range []int{1, 7, 256, 1024} {
		hs, us := testEnv()
		ms := NewWindowed("MRRL (90%)", hs, us, windows)
		hb, ub := testEnv()
		mb := NewWindowed("MRRL (90%)", hb, ub, windows)
		for _, reg := range regions {
			feedScalar(ms, reg)
			feedBatched(mb, reg, chunk)
		}
		compareMethods(t, ms, mb, hs.State(), hb.State(), us.State(), ub.State())
	}
}

// TestReverseObserveSkipBatchZeroAllocs pins the reverse method's batched
// logging as allocation-free once the region log has reached steady-state
// capacity (Reset retains storage between regions).
func TestReverseObserveSkipBatchZeroAllocs(t *testing.T) {
	recs := genRecords(t, 4096)
	h, u := testEnv()
	m := Spec{Kind: KindReverse, Percent: 100, Cache: true, BPred: true}.New(h, u)
	m.BeginSkip(uint64(len(recs)))
	m.ObserveSkipBatch(recs)
	avg := testing.AllocsPerRun(20, func() {
		m.BeginSkip(uint64(len(recs)))
		m.ObserveSkipBatch(recs)
	})
	if avg != 0 {
		t.Fatalf("batched logging allocates %.2f per region in steady state", avg)
	}
}
