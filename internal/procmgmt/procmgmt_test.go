package procmgmt

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestRegisterAssignsSequentialGPIDs(t *testing.T) {
	tb := NewTable()
	for i := int64(1); i <= 5; i++ {
		if gpid := tb.Register(int32(i), "node00", 0); gpid != i {
			t.Fatalf("gpid = %d, want %d", gpid, i)
		}
	}
	snap := tb.Snapshot()
	if len(snap) != 5 {
		t.Fatalf("%d processes in the table, want 5", len(snap))
	}
	for _, e := range snap {
		if e.State != StateRunning {
			t.Fatalf("gpid %d: state %v, want running", e.GPID, e.State)
		}
	}
}

func TestExitLifecycle(t *testing.T) {
	tb := NewTable()
	g := tb.Register(0, "node00", 100)
	if err := tb.Exit(g, 7, 200); err != nil {
		t.Fatalf("Exit: %v", err)
	}
	snap := tb.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("snapshot length %d", len(snap))
	}
	e := snap[0]
	if e.State != StateExited || e.ExitCode != 7 || e.Start != 100 || e.End != 200 {
		t.Fatalf("entry = %+v", e)
	}
	if err := tb.Exit(g, 0, 300); err == nil {
		t.Fatal("double exit should fail")
	}
	if err := tb.Exit(999, 0, 300); err == nil {
		t.Fatal("unknown gpid should fail")
	}
}

func TestSnapshotOrderedByGPID(t *testing.T) {
	tb := NewTable()
	for i := 0; i < 10; i++ {
		tb.Register(int32(i), "h", sim.Time(i))
	}
	snap := tb.Snapshot()
	for i := 1; i < len(snap); i++ {
		if snap[i].GPID <= snap[i-1].GPID {
			t.Fatal("snapshot not ordered")
		}
	}
}

func TestSnapshotEncodingRoundTrip(t *testing.T) {
	tb := NewTable()
	tb.Register(3, "node03", 123)
	g := tb.Register(4, "node04", 456)
	tb.Exit(g, -2, 789)
	snap := tb.Snapshot()
	got, err := DecodeSnapshot(EncodeSnapshot(snap))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if len(got) != len(snap) {
		t.Fatalf("length %d vs %d", len(got), len(snap))
	}
	for i := range snap {
		if got[i] != snap[i] {
			t.Fatalf("entry %d: %+v vs %+v", i, got[i], snap[i])
		}
	}
}

// Property: encode/decode round-trips arbitrary tables.
func TestEncodingRoundTripProperty(t *testing.T) {
	f := func(kernels []int32, hostSeed uint8, exits []bool) bool {
		tb := NewTable()
		gpids := make([]int64, len(kernels))
		for i, k := range kernels {
			host := string(rune('a' + (int(hostSeed)+i)%26))
			gpids[i] = tb.Register(k, host, sim.Time(i))
		}
		for i, ex := range exits {
			if ex && i < len(gpids) {
				tb.Exit(gpids[i], int64(i), sim.Time(1000+i))
			}
		}
		snap := tb.Snapshot()
		got, err := DecodeSnapshot(EncodeSnapshot(snap))
		if err != nil || len(got) != len(snap) {
			return false
		}
		for i := range snap {
			if got[i] != snap[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRejectsTruncated(t *testing.T) {
	tb := NewTable()
	tb.Register(0, "hostname", 0)
	enc := EncodeSnapshot(tb.Snapshot())
	for cut := 1; cut < len(enc); cut += 7 {
		if _, err := DecodeSnapshot(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestDecodeRejectsAbsurdCount(t *testing.T) {
	enc := EncodeSnapshot(nil)
	enc[0] = 0xff
	enc[7] = 0xff
	if _, err := DecodeSnapshot(enc); err == nil {
		t.Fatal("absurd count accepted")
	}
}
