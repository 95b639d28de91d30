package stress_test

import (
	"strings"
	"testing"

	"repro/internal/check/stress"
	"repro/internal/core"
)

// TestCaseVerifyHasTeeth proves the sweep rows' gates can fail: a row over
// a deliberately broken protocol fails on its violations — all words strong,
// and strong words beside the release and lease tiers — and a membership row
// whose schedule never fires fails on the event gate although its history is
// clean.
func TestCaseVerifyHasTeeth(t *testing.T) {
	for _, o := range []stress.Options{
		{Seed: 3, NumPE: 4, OpsPerPE: 300},
		{Seed: 12, NumPE: 4, OpsPerPE: 300, Modes: true},
	} {
		o.Fault = core.FaultDropWrites
		if !strings.Contains(o.String(), "fault=drop-writes") {
			t.Errorf("faulted row prints as %q, like a clean one", o)
		}
		res, err := stress.Run(o)
		if err != nil {
			t.Fatal(err)
		}
		if err := (stress.Case{Options: o}).Verify(res); err == nil || !strings.Contains(err.Error(), "violations") {
			t.Errorf("row with writes dropped (%v): Verify = %v, want a violations failure", o, err)
		}
	}

	// The latent PE would join at op 1000 of a 100-op run.
	idle := stress.Case{MinEvents: 3, Options: stress.Options{
		Seed: 1, NumPE: 4, OpsPerPE: 100, Latent: 1, JoinAtOp: 1000,
	}}
	res, err := stress.Run(idle.Options)
	if err != nil {
		t.Fatal(err)
	}
	if err := (stress.Case{Options: idle.Options}).Verify(res); err != nil {
		t.Fatalf("idle membership run is not clean, so it cannot isolate the event gate: %v", err)
	}
	if err := idle.Verify(res); err == nil || !strings.Contains(err.Error(), "membership events") {
		t.Errorf("membership row whose schedule never fired: Verify = %v, want an event-gate failure", err)
	}
}
