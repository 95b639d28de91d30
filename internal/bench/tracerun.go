package bench

import (
	"fmt"
	"io"

	"repro/internal/apps/gauss"
	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/trace"
)

// TraceGauss runs the Gauss-Seidel solver with span tracing enabled and
// writes the run as Chrome trace_event JSON (chrome://tracing, Perfetto).
// It returns the run result so callers can cross-check span coverage.
func TraceGauss(pl *platform.Platform, n, npe int, seed uint64, w io.Writer) (*core.Result, error) {
	res, err := runClean(core.Config{
		NumPE:        npe,
		Platform:     pl,
		Seed:         seed,
		GMBlockWords: gaussBlockWords,
		Tracing:      trace.TracingConfig{Enabled: true, RingSize: 1 << 16},
	}, func(pe *core.PE) error {
		_, err := gauss.Parallel(pe, gauss.Params{N: n, Seed: seed})
		return err
	})
	if err != nil {
		return nil, err
	}
	if err := res.WriteChromeTrace(w); err != nil {
		return nil, fmt.Errorf("exporting trace: %w", err)
	}
	return res, nil
}
