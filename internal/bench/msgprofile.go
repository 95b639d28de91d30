package bench

import (
	"fmt"

	"repro/internal/apps/dct"
	"repro/internal/apps/gauss"
	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/trace"
)

// MessageProfile runs the two data-parallel reference workloads on the
// simulated cluster and reports the cluster-wide per-op message traffic:
// which protocol operations carry the communication, and how scalar
// read/write requests trade against the vectored (scatter/gather) ones.
func MessageProfile(pl *platform.Platform, npe int, seed uint64) ([]*trace.Table, error) {
	workloads := []workload{
		// Default (32-word) DSM blocks: the shared vector then spans
		// several blocks per home and the row fetch rides the vectored
		// read path, visible below as read-v displacing scalar reads.
		{fmt.Sprintf("gauss N=300 p=%d", npe), core.Config{NumPE: npe, Platform: pl, Seed: seed},
			gaussApp(gauss.Params{N: 300, Seed: seed})},
		{fmt.Sprintf("dct 256/8 p=%d", npe), core.Config{NumPE: npe, Platform: pl, Seed: seed},
			dctApp(dct.Params{ImageN: 256, Block: 8, Rate: 0.5, Seed: seed})},
	}
	var tables []*trace.Table
	for _, w := range workloads {
		res, err := w.result()
		if err != nil {
			return nil, err
		}
		title := fmt.Sprintf("message profile, %s on %s (total %d msgs, %d bytes)",
			w.name, pl.Numeric, res.Total.MsgsSent, res.Total.BytesSent)
		tables = append(tables, res.Total.OpTable(title))
	}
	return tables, nil
}
