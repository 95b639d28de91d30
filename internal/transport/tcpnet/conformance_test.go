package tcpnet

import (
	"testing"

	"repro/internal/transport/transporttest"
)

func TestConformance(t *testing.T) {
	transporttest.Run(t, func(t *testing.T, n int) transporttest.Network {
		net, err := NewLocal(n)
		if err != nil {
			t.Fatalf("NewLocal: %v", err)
		}
		return net
	})
}

func TestSinkConformance(t *testing.T) {
	transporttest.RunSink(t, func(t *testing.T, n int) transporttest.Network {
		net, err := NewLocal(n)
		if err != nil {
			t.Fatalf("NewLocal: %v", err)
		}
		return net
	})
}

func TestSendRetainsNothing(t *testing.T) {
	transporttest.RunRetain(t, func(t *testing.T, n int) transporttest.Network {
		net, err := NewLocal(n)
		if err != nil {
			t.Fatalf("NewLocal: %v", err)
		}
		return net
	})
}
