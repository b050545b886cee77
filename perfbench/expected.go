package main

import (
	"bufio"
	"embed"
	"fmt"
	"io/fs"
	"os"
	"strconv"
	"strings"

	"rsr/internal/warmup"
)

// The expected outputs are embedded, so the binary checks against the
// values recorded with the source it was built from.
//
//go:embed expected
var expectedFS embed.FS

// want is one operation's recorded output.
type want struct {
	ipc    float64
	cycles uint64
	instrs uint64
	work   warmup.Work
}

// expected holds the recorded outputs: the seed-independent true IPCs
// (full-detail runs of each program at total instructions) and, per
// workload and recorded seed, every operation's output.
type expected struct {
	trueIPC map[string]want
	ops     map[string]map[int64]map[string]want // workload -> seed -> op key
}

// loadExpected reads expected/true_ipc.tsv and expected/<workload>.tsv.
// Rows are tab-separated; the true-IPC file has no seed column.
func loadExpected() (*expected, error) {
	exp := &expected{trueIPC: map[string]want{}, ops: map[string]map[int64]map[string]want{}}
	err := readRows("expected/true_ipc.tsv", func(f []string) error {
		w, err := parseWant(f[1:])
		exp.trueIPC[f[0]] = w
		return err
	})
	if err != nil {
		return nil, err
	}
	for name := range workloads {
		bySeed := map[int64]map[string]want{}
		err := readRows("expected/"+name+".tsv", func(f []string) error {
			seed, err := strconv.ParseInt(f[0], 10, 64)
			if err != nil || len(f) < 2 {
				return fmt.Errorf("bad seed column %q", f[0])
			}
			w, err := parseWant(f[2:])
			if bySeed[seed] == nil {
				bySeed[seed] = map[string]want{}
			}
			bySeed[seed][f[1]] = w
			return err
		})
		if err != nil {
			return nil, err
		}
		exp.ops[name] = bySeed
	}
	return exp, nil
}

func readRows(path string, row func([]string) error) error {
	b, err := fs.ReadFile(expectedFS, path)
	if err != nil {
		return err
	}
	for i, line := range strings.Split(string(b), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if err := row(strings.Split(line, "\t")); err != nil {
			return fmt.Errorf("%s:%d: %w", path, i+1, err)
		}
	}
	return nil
}

// parseWant reads ipc, cycles, instructions and, when present, the four
// warmup.Work counters.
func parseWant(f []string) (want, error) {
	if len(f) != 3 && len(f) != 7 {
		return want{}, fmt.Errorf("want 3 or 7 value columns, have %d", len(f))
	}
	var w want
	var err error
	if w.ipc, err = strconv.ParseFloat(f[0], 64); err != nil {
		return w, err
	}
	u := make([]uint64, len(f)-1)
	for i, s := range f[1:] {
		if u[i], err = strconv.ParseUint(s, 10, 64); err != nil {
			return w, err
		}
	}
	w.cycles, w.instrs = u[0], u[1]
	if len(u) == 6 {
		w.work = warmup.Work{WarmOps: u[2], LoggedRecords: u[3], ReconScanned: u[4], ReconApplied: u[5]}
	}
	return w, nil
}

func wantOf(o op) want {
	return want{ipc: o.IPC, cycles: o.Cycles, instrs: o.Instrs, work: o.Work}
}

// diff describes how got differs from w, or returns "".
func (w want) diff(got want) string {
	if w == got {
		return ""
	}
	return fmt.Sprintf("got ipc=%s cycles=%d instrs=%d work=%+v, want ipc=%s cycles=%d instrs=%d work=%+v",
		fmtFloat(got.ipc), got.cycles, got.instrs, got.work, fmtFloat(w.ipc), w.cycles, w.instrs, w.work)
}

// fmtFloat prints the shortest decimal that parses back to exactly v.
func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// seedRecorded reports whether the workload's outputs are recorded for seed.
func (e *expected) seedRecorded(workload string, seed int64) bool {
	return e.ops[workload][seed] != nil
}

// check compares one op against the recorded output: true-IPC jobs against
// the true-IPC file at any seed, other ops against the seed's recording.
// recorded is false when nothing is recorded for the op.
func (e *expected) check(workload string, seed int64, o op) (recorded bool, mismatch string) {
	if prog, ok := strings.CutPrefix(o.Key, fullKey("")); ok {
		w, ok := e.trueIPC[prog]
		return ok, w.diff(want{ipc: o.IPC, cycles: o.Cycles, instrs: o.Instrs})
	}
	w, ok := e.ops[workload][seed][o.Key]
	if !ok {
		return false, ""
	}
	return true, w.diff(wantOf(o))
}

// recordSeed runs one pass of the workload at seed and writes its outputs
// in the expected-file format. True-IPC jobs (fig7-fabric's full/ ops) are
// written without a seed column, ready for true_ipc.tsv.
func recordSeed(b *bench, exp *expected, seed int64, path string) error {
	e, err := b.setup(exp, seed)
	if err != nil {
		return err
	}
	p, err := e.pass()
	e.close()
	if err != nil {
		return err
	}
	fh, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(fh)
	for _, o := range p.Ops {
		if prog, ok := strings.CutPrefix(o.Key, fullKey("")); ok {
			fmt.Fprintf(bw, "%s\t%s\t%d\t%d\n", prog, fmtFloat(o.IPC), o.Cycles, o.Instrs)
			continue
		}
		fmt.Fprintf(bw, "%d\t%s\t%s\t%d\t%d\t%d\t%d\t%d\t%d\n", seed, o.Key, fmtFloat(o.IPC), o.Cycles, o.Instrs,
			o.Work.WarmOps, o.Work.LoggedRecords, o.Work.ReconScanned, o.Work.ReconApplied)
	}
	if err := bw.Flush(); err != nil {
		fh.Close()
		return err
	}
	return fh.Close()
}
