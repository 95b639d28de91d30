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
	_, res, err := run(core.Config{
		NumPE:        npe,
		Platform:     pl,
		Seed:         seed,
		GMBlockWords: gaussBlockWords,
		Tracing:      trace.TracingConfig{Enabled: true, RingSize: 1 << 16},
	}, gaussApp(gauss.Params{N: n, Seed: seed}))
	if err != nil {
		return nil, err
	}
	if err := res.WriteChromeTrace(w); err != nil {
		return nil, fmt.Errorf("exporting trace: %w", err)
	}
	return res, nil
}
