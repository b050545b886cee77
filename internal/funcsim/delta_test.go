package funcsim

import (
	"testing"

	"rsr/internal/isa"
	"rsr/internal/prog"
)

func deltaProgram() *prog.Program {
	b := prog.NewBuilder("d")
	b.Li(1, int64(prog.DataBase))
	b.Li(2, 0)
	b.Label("loop")
	b.Addi(2, 2, 1)
	b.St(1, 2, 0)
	b.Addi(1, 1, 8)
	b.Jmp("loop")
	b.Halt()
	return b.MustBuild()
}

func TestCaptureApplyDeltaRoundTrip(t *testing.T) {
	s := New(deltaProgram())
	if _, err := s.Skip(1000); err != nil {
		t.Fatal(err)
	}
	d1 := s.CaptureDelta()
	if len(d1.Pages) == 0 {
		t.Fatal("first delta must carry dirtied pages")
	}
	if d1.Seq != 1000 || d1.PC != s.PC() {
		t.Fatalf("delta header wrong: %+v", d1)
	}

	// Continue, capture a second (incremental) delta.
	if _, err := s.Skip(1000); err != nil {
		t.Fatal(err)
	}
	d2 := s.CaptureDelta()
	if len(d2.Pages) == 0 {
		t.Fatal("second delta must carry newly dirtied pages")
	}

	// A fresh simulator with both deltas applied must continue identically
	// to the original.
	r := New(deltaProgram())
	r.ApplyDelta(d1)
	r.ApplyDelta(d2)
	for i := 0; i < 500; i++ {
		a, err1 := step(s)
		b, err2 := step(r)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if a != b {
			t.Fatalf("divergence at step %d: %+v vs %+v", i, a, b)
		}
	}
}

func TestDeltaAccessors(t *testing.T) {
	s := New(deltaProgram())
	if s.PC() != prog.CodeBase || s.Seq() != 0 {
		t.Fatal("initial accessors wrong")
	}
	if s.Mem() == nil {
		t.Fatal("Mem accessor nil")
	}
	d, err := step(s)
	if err != nil {
		t.Fatal(err)
	}
	if d.Op != isa.OpLui || s.Seq() != 1 {
		t.Fatal("step accounting wrong")
	}
}

func TestDirtyPagesClearsFlags(t *testing.T) {
	m := NewMemory()
	m.Write(0x1000, 1)
	m.Write(0x2000, 2)
	first := m.DirtyPages()
	if len(first) != 2 {
		t.Fatalf("dirty pages = %d, want 2", len(first))
	}
	if len(m.DirtyPages()) != 0 {
		t.Fatal("flags not cleared")
	}
	m.Write(0x1000, 3)
	if len(m.DirtyPages()) != 1 {
		t.Fatal("rewrite must re-dirty one page")
	}
}

func TestInstallPagesOverwrites(t *testing.T) {
	m := NewMemory()
	m.Write(0x1000, 42)
	pages := m.DirtyPages()
	m.Write(0x1000, 99)
	m.InstallPages(pages)
	if m.Read(0x1000) != 42 {
		t.Fatalf("install did not restore: %d", m.Read(0x1000))
	}
}

func TestSkipDiscardsRecords(t *testing.T) {
	s := New(deltaProgram())
	n, err := s.Skip(123)
	if err != nil || n != 123 {
		t.Fatalf("skip = %d, %v", n, err)
	}
	if s.Seq() != 123 {
		t.Fatal("seq not advanced")
	}
}
