package bench

import (
	"strings"
	"testing"

	"repro/internal/platform"
)

func TestTable1ListsThreePlatforms(t *testing.T) {
	tab := Table1()
	if len(tab.Rows) != 3 {
		t.Fatalf("Table 1 has %d rows", len(tab.Rows))
	}
	var b strings.Builder
	tab.Fprint(&b)
	out := b.String()
	for _, want := range []string{"SparcStation", "RS/6000", "PentiumII", "SunOS", "AIX", "Linux"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table 1 missing %q:\n%s", want, out)
		}
	}
}

func TestTable2PaperExample(t *testing.T) {
	tab := Table2(12)
	if len(tab.Rows) != 12 {
		t.Fatalf("Table 2 has %d rows", len(tab.Rows))
	}
	last := tab.Rows[11]
	if last[0] != "12" || last[2] != "2" {
		t.Fatalf("12-processor row = %v, want 2 kernels/machine", last)
	}
}

func TestFigureByNumberRejectsUnknown(t *testing.T) {
	for _, n := range []int{0, 3, 22, -1} {
		if _, err := FigureByNumber(n, QuickScale()); err == nil {
			t.Fatalf("figure %d accepted", n)
		}
	}
}

func TestAllFigureNumbersComplete(t *testing.T) {
	ns := AllFigureNumbers()
	if len(ns) != 18 {
		t.Fatalf("%d figures, want 18 (Figs 4-21)", len(ns))
	}
	for i, n := range ns {
		if n != i+4 {
			t.Fatalf("figure list %v not 4..21", ns)
		}
	}
}

func TestPlatformMappingMatchesPaper(t *testing.T) {
	if platformForFigure(4) != platform.SparcSunOS ||
		platformForFigure(7) != platform.RS6000AIX ||
		platformForFigure(9) != platform.PentiumIILinux ||
		platformForFigure(16) != platform.SparcSunOS ||
		platformForFigure(21) != platform.PentiumIILinux {
		t.Fatal("figure-to-platform mapping wrong")
	}
}

func TestKnightFigureQuick(t *testing.T) {
	sc := QuickScale()
	sc.MaxPE = 3
	sc.KnightJobs = []int{8}
	fig, err := KnightFigure(platform.PentiumIILinux, sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 1 || len(fig.Series[0].Y) != 3 {
		t.Fatalf("series shape wrong: %+v", fig.Series)
	}
	for _, y := range fig.Series[0].Y {
		if y <= 0 {
			t.Fatalf("non-positive execution time %v", y)
		}
	}
}

// TestReferenceWorkloadsCleanOnSimnet: the reference runs dsebench -latency
// renders (and cmd/dsebench's golden test pins digit for digit) must see no
// reliability event on the loss-free simulated network — a retry, a dropped
// or stale reply or an absorbed duplicate there is a protocol bug, whatever
// the tables say.
func TestReferenceWorkloadsCleanOnSimnet(t *testing.T) {
	sc := QuickScale()
	for _, w := range referenceWorkloads(platform.SparcSunOS, sc) {
		res, err := w.result()
		if err != nil {
			t.Fatal(err)
		}
		if s := &res.Total; s.Retries != 0 || s.CorruptDrops != 0 || s.StaleReplies != 0 || s.DupRequests != 0 {
			t.Errorf("%s saw reliability events on simnet: retries=%d corrupt=%d stale=%d dup=%d",
				w.name, s.Retries, s.CorruptDrops, s.StaleReplies, s.DupRequests)
		}
	}
}
