package inproc

import (
	"testing"

	"repro/internal/transport/transporttest"
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
