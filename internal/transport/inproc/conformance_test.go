package inproc

import (
	"testing"

	"repro/internal/transport/transporttest"
	"repro/internal/wire"
)

func TestConformance(t *testing.T) {
	transporttest.Run(t, func(t *testing.T, n int) transporttest.Network {
		return New(n)
	})
}

func TestSinkConformance(t *testing.T) {
	transporttest.RunSink(t, func(t *testing.T, n int) transporttest.Network {
		return New(n)
	})
}

func TestSendRetainsNothing(t *testing.T) {
	factory := func(t *testing.T, n int) transporttest.Network { return New(n) }
	// The case must cover both of Send's frames: one on its stack, one pooled.
	var below, above bool
	for _, p := range transporttest.RetainPayloads {
		below = below || wire.HeaderSize+p <= stackFrame
		above = above || wire.HeaderSize+p > stackFrame
	}
	if !below || !above {
		t.Fatalf("RetainPayloads %v do not straddle the %d-byte stack frame", transporttest.RetainPayloads, stackFrame)
	}
	transporttest.RunRetain(t, factory)
}
