package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"
	"time"
)

// TestSpecMatchesBenchmarkJSON keeps the metric and workload lists printed
// by this package equal to the contract at the repository root.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var bf struct {
		Paths     []string `json:"paths"`
		Workloads []entry  `json:"workloads"`
		EndToEnd  []entry  `json:"end_to_end"`
		PerLayer  []entry  `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []entry, want []metricSpec) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d entries, spec.go has %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s [%s], spec.go has %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", bf.EndToEnd, endToEnd)
	same("per_layer", bf.PerLayer, perLayer)
	if len(bf.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, want %d", len(bf.Workloads), len(workloadNames))
	}
	for i, w := range workloadNames {
		if bf.Workloads[i].Name != w {
			t.Errorf("workload %d: BENCHMARK.json has %s, want %s", i, bf.Workloads[i].Name, w)
		}
	}
}

// TestWorkloadsSmoke runs every workload for two short windows: results
// verify, path assertions hold, and every end-to-end metric comes out
// positive. Timings are not looked at.
func TestWorkloadsSmoke(t *testing.T) {
	for _, name := range workloadNames {
		r, err := newRunner(name)
		if err != nil {
			t.Fatal(err)
		}
		t0 := now()
		if err := r.start(7, false); err != nil {
			t.Fatalf("%s: start: %v", name, err)
		}
		setup := float64(now()-t0) / 1e9
		wins, err := measureWindows(r, 2, 100*time.Millisecond)
		c, serr := r.stop()
		if err != nil {
			t.Fatalf("%s: window: %v", name, err)
		}
		if serr != nil {
			t.Fatalf("%s: stop: %v", name, serr)
		}
		for i := range wins {
			if wins[i].units == 0 || wins[i].failed != 0 {
				t.Errorf("%s: window %d: %d units, %d failed", name, i, wins[i].units, wins[i].failed)
			}
			if len(wins[i].class) != len(r.classes()) {
				t.Errorf("%s: window %d has %d classes, want %d", name, i, len(wins[i].class), len(r.classes()))
			}
		}
		vals, _ := timedMetrics([]float64{setup}, wins)
		for _, m := range endToEnd {
			if !(vals[m.name] > 0) {
				t.Errorf("%s: %s = %v, want > 0", name, m.name, vals[m.name])
			}
		}
		if c.total.MsgsSent == 0 {
			t.Errorf("%s: no messages counted", name)
		}
	}
}

// TestWrongPathFailsAssertion forces gm_msg onto the one-sided window: the
// run must fail its path assertion instead of reporting a different number.
func TestWrongPathFailsAssertion(t *testing.T) {
	spec := opSpecs()["gm_msg"]
	spec.cfg.KernelShards, spec.cfg.DirectReads = 2, 1
	r := newOpRunner(spec)
	if err := r.start(1, false); err != nil {
		t.Fatal(err)
	}
	if _, err := measureWindows(r, 1, 50*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if _, err := r.stop(); err == nil {
		t.Fatal("gm_msg with DirectReads on passed its path assertion")
	} else {
		t.Log(err)
	}
}

// TestResultLine runs the cheapest workload through run and checks the
// result has the contract's shape for both kinds of run.
func TestResultLine(t *testing.T) {
	for _, traced := range []bool{false, true} {
		res, err := run(options{workload: "gm_onesided", seed: 3, seconds: 0.3, trace: traced, log: io.Discard})
		if err != nil {
			t.Fatal(err)
		}
		want := endToEnd
		if traced {
			want = perLayer
		}
		if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
			t.Errorf("trace=%v: correct=%v attempted=%d failed=%d", traced, res.Correct, res.Attempted, res.Failed)
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("trace=%v: %d metrics, want %d", traced, len(res.Metrics), len(want))
		}
		for _, m := range want {
			if got, ok := res.Metrics[m.name]; !ok || got.Unit != m.unit {
				t.Errorf("trace=%v: metric %s missing or unit %q, want %q", traced, m.name, got.Unit, m.unit)
			}
		}
	}
}
