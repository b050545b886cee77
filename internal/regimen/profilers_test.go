package regimen

import (
	"testing"

	"rsr/internal/prog"
	"rsr/internal/reuse"
	"rsr/internal/sampling"
	"rsr/internal/simpoint"
	"rsr/internal/warmup"
)

// nopsThenHalt executes exactly n dynamic instructions, the last a halt.
func nopsThenHalt(n int) *prog.Program {
	b := prog.NewBuilder("halting")
	for i := 0; i < n-1; i++ {
		b.Nop()
	}
	b.Halt()
	return b.MustBuild()
}

// nopsThenEscape executes n nops, then jumps outside the code segment: the
// (n+2)-th instruction faults.
func nopsThenEscape(n int) *prog.Program {
	b := prog.NewBuilder("escaping")
	for i := 0; i < n; i++ {
		b.Nop()
	}
	b.Li(1, 0x10)
	b.Jr(1)
	return b.MustBuild()
}

// TestProfilersReportHaltAndFault pins the error every functional profiling
// pass returns when the workload halts before the profiled length, or when
// its PC escapes the code segment part-way through a batch.
func TestProfilersReportHaltAndFault(t *testing.T) {
	const total, cluster = 40_000, 1000
	profilers := []struct {
		name string
		run  func(p *prog.Program) error
	}{
		{"simpoint.Profile", func(p *prog.Program) error {
			_, _, err := simpoint.Profile(p, total, 10_000)
			return err
		}},
		{"ranked-set", func(p *prog.Program) error {
			_, err := RankedSet{}.Select(Params{
				Program: p,
				Machine: sampling.DefaultMachine(),
				Regimen: sampling.Regimen{ClusterSize: cluster, NumClusters: 4},
				Total:   total,
				Seed:    1,
				Warmup:  warmup.Spec{Kind: warmup.KindNone},
			})
			return err
		}},
		{"reuse.Profile", func(p *prog.Program) error {
			_, err := reuse.Profile(p, []uint64{5000, 20_000, 35_000}, cluster, total, 90, reuse.MRRL)
			return err
		}},
	}
	programs := []struct {
		name string
		p    *prog.Program
		want map[string]string
	}{
		{"halts", nopsThenHalt(25_000), map[string]string{
			"simpoint.Profile": "simpoint: workload halted during profiling interval 2",
			"ranked-set":       "regimen: workload halted after 25000 instructions during scoring",
			"reuse.Profile":    "reuse: workload halted during profiling",
		}},
		{"escapes", nopsThenEscape(25_000), map[string]string{
			"simpoint.Profile": "simpoint: profiling: funcsim: pc 0x10 escaped code segment",
			"ranked-set":       "regimen: ranked-set scoring pass: funcsim: pc 0x10 escaped code segment",
			"reuse.Profile":    "reuse: profiling: funcsim: pc 0x10 escaped code segment",
		}},
	}
	for _, pg := range programs {
		for _, pr := range profilers {
			t.Run(pg.name+"/"+pr.name, func(t *testing.T) {
				err := pr.run(pg.p)
				if err == nil {
					t.Fatal("want an error, got nil")
				}
				if got, want := err.Error(), pg.want[pr.name]; got != want {
					t.Fatalf("error = %q\nwant    %q", got, want)
				}
			})
		}
	}
}
