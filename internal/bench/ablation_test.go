package bench

import (
	"testing"

	"repro/internal/platform"
)

func TestAblationLeaseWinsOnReadMostlyTable(t *testing.T) {
	if testing.Short() {
		t.Skip("ablations are seconds-long")
	}
	fig, err := AblationLease(platform.SparcSunOS, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	home := seriesByLabel(t, fig.Series, "home-based")
	lease := seriesByLabel(t, fig.Series, "lease")
	// At 4 PEs the leased run must be clearly faster on re-reads.
	if yAt(t, lease, 4) >= yAt(t, home, 4)*0.7 {
		t.Fatalf("leases did not pay off: %v vs %v", yAt(t, lease, 4), yAt(t, home, 4))
	}
}

func TestAblationBarrierBothScale(t *testing.T) {
	if testing.Short() {
		t.Skip("ablations are seconds-long")
	}
	fig, err := AblationBarrier(platform.SparcSunOS, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	central := seriesByLabel(t, fig.Series, "central")
	tree := seriesByLabel(t, fig.Series, "tree")
	// Both must cost more with more PEs, and neither may be free.
	if yAt(t, central, 8) <= yAt(t, central, 2) || yAt(t, tree, 8) <= yAt(t, tree, 2) {
		t.Fatal("barrier cost did not grow with cluster size")
	}
	if yAt(t, central, 8) <= 0 || yAt(t, tree, 8) <= 0 {
		t.Fatal("zero-cost barrier")
	}
}

func TestAblationLoadModelExplainsKnee(t *testing.T) {
	if testing.Short() {
		t.Skip("ablations are seconds-long")
	}
	fig, err := AblationLoadModel(platform.SparcSunOS, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	prop := seriesByLabel(t, fig.Series, "load proportional")
	none := seriesByLabel(t, fig.Series, "load none")
	// Identical up to six processors (no co-location yet)...
	for p := 1.0; p <= 6; p++ {
		a, b := yAt(t, prop, p), yAt(t, none, p)
		if a != b {
			t.Fatalf("p=%v: load model changed a dedicated-machine run: %v vs %v", p, a, b)
		}
	}
	// ...and the knee exists only under the proportional model.
	if yAt(t, prop, 7) >= yAt(t, prop, 6) {
		t.Fatal("proportional model shows no knee at 7 processors")
	}
	if yAt(t, none, 7) < yAt(t, none, 6) {
		t.Fatal("knee appeared even without co-location slowdown")
	}
}

func TestAblationSharedVsMessageBothWork(t *testing.T) {
	if testing.Short() {
		t.Skip("ablations are seconds-long")
	}
	fig, err := AblationSharedVsMessage(platform.SparcSunOS, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	dsm := seriesByLabel(t, fig.Series, "DSM")
	mp := seriesByLabel(t, fig.Series, "message-passing")
	// Both parallelise: p=6 beats p=1 for each model.
	if yAt(t, dsm, 6) >= yAt(t, dsm, 1) {
		t.Fatal("DSM variant failed to speed up")
	}
	if yAt(t, mp, 6) >= yAt(t, mp, 1) {
		t.Fatal("MP variant failed to speed up")
	}
}

func TestAblationProtocolOverheadMonotone(t *testing.T) {
	if testing.Short() {
		t.Skip("ablations are seconds-long")
	}
	fig, err := AblationProtocolOverhead(platform.SparcSunOS, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := fig.Series[0]
	for i := 1; i < len(s.Y); i++ {
		if s.Y[i] <= s.Y[i-1] {
			t.Fatalf("execution time not monotone in protocol cost: %v", s.Y)
		}
	}
	// The paper's motivation: overhead matters. 16x the cost must hurt
	// noticeably (>20% slower end to end).
	if s.Y[len(s.Y)-1] < s.Y[0]*1.2 {
		t.Fatalf("protocol cost sweep barely matters: %v", s.Y)
	}
}

func TestAblationChunkingRescuesFineGrain(t *testing.T) {
	if testing.Short() {
		t.Skip("ablations are seconds-long")
	}
	fig, err := AblationChunking(platform.SparcSunOS, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	perBlock := seriesByLabel(t, fig.Series, "chunk=1")
	chunked := seriesByLabel(t, fig.Series, "chunk=64")
	if yAt(t, chunked, 6) >= yAt(t, perBlock, 6) {
		t.Fatalf("chunking did not help 4x4 blocks: %v vs %v",
			yAt(t, chunked, 6), yAt(t, perBlock, 6))
	}
	// Chunked 4x4 should actually speed up relative to one processor.
	if yAt(t, chunked, 6) >= yAt(t, chunked, 1) {
		t.Fatal("chunked 4x4 still fails to beat sequential")
	}
}

func TestAblationOrganizationNewBeatsOld(t *testing.T) {
	if testing.Short() {
		t.Skip("ablations are seconds-long")
	}
	fig, err := AblationOrganization(platform.SparcSunOS, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	newOrg := seriesByLabel(t, fig.Series, "new (one process)")
	oldOrg := seriesByLabel(t, fig.Series, "old (kernel via IPC)")
	// The paper: the reorganisation substantially enhances performance.
	for p := 1.0; p <= 6; p++ {
		if yAt(t, newOrg, p) >= yAt(t, oldOrg, p) {
			t.Fatalf("p=%v: new organisation not faster (%v vs %v)",
				p, yAt(t, newOrg, p), yAt(t, oldOrg, p))
		}
	}
	// On purely local fine-grain access (p=1) the enhancement must be an
	// order of magnitude — a function call replaces an IPC round trip.
	if yAt(t, oldOrg, 1) < 5*yAt(t, newOrg, 1) {
		t.Fatalf("p=1 enhancement not substantial: %v vs %v",
			yAt(t, oldOrg, 1), yAt(t, newOrg, 1))
	}
	// And it must still matter (>=15%%) with remote traffic at p=2.
	if yAt(t, oldOrg, 2) < 1.15*yAt(t, newOrg, 2) {
		t.Fatalf("p=2 enhancement too small: %v vs %v",
			yAt(t, oldOrg, 2), yAt(t, newOrg, 2))
	}
}

func TestAblationMediumSwitchBeatsBusAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("ablations are seconds-long")
	}
	fig, err := AblationMedium(platform.SparcSunOS, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	bus := seriesByLabel(t, fig.Series, "shared bus")
	sw := seriesByLabel(t, fig.Series, "switched")
	// The wire-bound workload must gain clearly (>=8%%) from the switch
	// once several PEs share the LAN.
	if yAt(t, sw, 6) > 0.92*yAt(t, bus, 6) {
		t.Fatalf("switched Ethernet gains too little at p=6: %v vs %v",
			yAt(t, sw, 6), yAt(t, bus, 6))
	}
	// At p=1 everything is local: media must agree exactly.
	if a, b := yAt(t, sw, 1), yAt(t, bus, 1); a != b {
		t.Fatalf("media differ with no traffic: %v vs %v", a, b)
	}
}
