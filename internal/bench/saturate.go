package bench

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/trace"
)

// SaturationPoint is one cell of the kernel-saturation sweep: the sustained
// remote global-memory throughput one home kernel services when every other
// PE hammers addresses homed there, at a given shard count. Unlike the rest
// of the snapshot this is wall-clock ops/sec over the in-process transport,
// so it is hardware- and load-dependent; the regression gate compares it
// with a wide margin (see Compare).
type SaturationPoint struct {
	Workload  string  `json:"workload"` // "read" or "mixed"
	NumPE     int     `json:"num_pe"`
	Shards    int     `json:"shards"`
	Direct    bool    `json:"direct"`          // one-sided read window active
	Rings     bool    `json:"rings,omitempty"` // one-sided write rings active
	Ops       uint64  `json:"ops"`             // total remote ops issued by the hammering PEs
	OpsPerSec float64 `json:"ops_per_sec"`
	DirectGM  uint64  `json:"direct_gm"`         // ops resolved through the window
	RingGM    uint64  `json:"ring_gm,omitempty"` // ops resolved through a submission ring
}

// saturationBlocks is how many kernel-0-homed blocks the hammering PEs
// spread their accesses over — enough to cover every shard and lock stripe
// at any configured shard count.
const saturationBlocks = 64

// SaturationOptions configures one saturation measurement.
type SaturationOptions struct {
	NumPE    int
	Shards   int
	OpsPerPE int
	Mixed    bool // 1-in-4 ops are writes
	// DirectReads passes through core.Config.DirectReads; 0 = auto
	// (window on iff Shards > 1).
	DirectReads int
	// WriteRings passes through core.Config.WriteRings; 0 = auto (rings on
	// wherever the window is), <0 forces writes back
	// onto the message path — the PR 6-comparable configuration.
	WriteRings int
}

// MeasureSaturation runs one saturation point on the in-process transport:
// PEs 1..NumPE-1 each issue OpsPerPE scalar operations against blocks homed
// at kernel 0, and the barrier-bracketed wall time at PE 0 yields the
// serviced ops/sec. Accesses stride whole blocks so consecutive ops land on
// different shards (and different segment lock stripes).
func MeasureSaturation(o SaturationOptions) (SaturationPoint, error) {
	var (
		mu      sync.Mutex
		elapsed time.Duration
	)
	cfg := core.Config{
		NumPE:        o.NumPE,
		Transport:    core.TransportInproc,
		KernelShards: o.Shards,
		DirectReads:  o.DirectReads,
		WriteRings:   o.WriteRings,
	}
	res, err := core.Run(cfg, func(pe *core.PE) error {
		bw := pe.Space().BlockWords
		p := pe.N()
		// Block index b is homed at kernel b % p: reserve enough space that
		// blocks 0, p, 2p, ... (p*saturationBlocks) all exist, then hammer
		// exactly the kernel-0-homed ones.
		base := pe.AllocBlocks(p * saturationBlocks * bw)
		if base != 0 {
			return fmt.Errorf("saturation: expected allocation at 0, got %d", base)
		}
		if pe.ID() == 0 {
			// Home side: seed the blocks, then sit in the barriers measuring.
			words := make([]int64, saturationBlocks*bw)
			for b := 0; b < saturationBlocks; b++ {
				for w := 0; w < bw; w++ {
					words[b*bw+w] = int64(b*bw + w + 1)
				}
			}
			for b := 0; b < saturationBlocks; b++ {
				pe.GMWriteBlock(uint64(b*p*bw), words[b*bw:(b+1)*bw])
			}
			pe.Barrier()
			t0 := time.Now()
			pe.Barrier()
			mu.Lock()
			elapsed = time.Since(t0)
			mu.Unlock()
			return nil
		}
		pe.Barrier()
		// Hammer: stride block-by-block so successive ops hit successive
		// shards; vary the word within the block per PE to avoid all PEs
		// contending on one word.
		id := pe.ID()
		for i := 0; i < o.OpsPerPE; i++ {
			b := i % saturationBlocks
			addr := uint64(b*p*bw + (i+id)%bw)
			if o.Mixed && i%4 == 3 {
				pe.GMWrite(addr, int64(id)<<32|int64(i))
			} else {
				pe.GMRead(addr)
			}
		}
		pe.Barrier()
		return nil
	})
	if err != nil {
		return SaturationPoint{}, err
	}
	if err := res.FirstErr(); err != nil {
		return SaturationPoint{}, err
	}
	mu.Lock()
	secs := elapsed.Seconds()
	mu.Unlock()
	ops := uint64(o.NumPE-1) * uint64(o.OpsPerPE)
	pt := SaturationPoint{
		Workload: "read",
		NumPE:    o.NumPE,
		Shards:   o.Shards,
		Ops:      ops,
		DirectGM: res.Total.DirectGM,
		Direct:   res.Total.DirectGM > 0,
		RingGM:   res.Total.RingGM,
		Rings:    res.Total.RingGM > 0,
	}
	if o.Mixed {
		pt.Workload = "mixed"
	}
	if secs > 0 {
		pt.OpsPerSec = float64(ops) / secs
	}
	return pt, nil
}

// saturationRuns is how many times each saturation point is measured, with
// the best run kept: a scheduler hiccup on a loaded CI machine must not trip
// the wall-clock regression floor.
const saturationRuns = 3

// measureSaturationBest measures o saturationRuns times and keeps the point
// with the highest throughput.
func measureSaturationBest(o SaturationOptions) (SaturationPoint, error) {
	var best SaturationPoint
	for i := 0; i < saturationRuns; i++ {
		pt, err := MeasureSaturation(o)
		if err != nil {
			return SaturationPoint{}, err
		}
		if pt.OpsPerSec > best.OpsPerSec {
			best = pt
		}
	}
	return best, nil
}

// SaturationSweep measures ops/sec into one home kernel across PE counts and
// shard counts: the tentpole scaling figure (dsebench -saturate). quick
// trims the op count, not the grid. Mixed points are measured twice where
// the write rings can engage: once with rings forced off — the key stays
// comparable against pre-ring baselines — and once with them on.
func SaturationSweep(quick bool) ([]SaturationPoint, error) {
	opsPerPE := 20000
	if quick {
		opsPerPE = 4000
	}
	var pts []SaturationPoint
	for _, mixed := range []bool{false, true} {
		for _, p := range []int{8, 16} {
			for _, shards := range []int{1, 2, 4, 8} {
				rings := []int{-1}
				if mixed && shards > 1 {
					rings = append(rings, 1) // the rings-on leg
				}
				for _, wr := range rings {
					pt, err := measureSaturationBest(SaturationOptions{
						NumPE: p, Shards: shards, OpsPerPE: opsPerPE,
						Mixed: mixed, WriteRings: wr,
					})
					if err != nil {
						return nil, fmt.Errorf("saturation p=%d shards=%d rings=%d: %w", p, shards, wr, err)
					}
					pts = append(pts, pt)
				}
			}
		}
	}
	return pts, nil
}

// SaturationTable renders a sweep as one row per (workload, p) with a column
// per shard count.
func SaturationTable(pts []SaturationPoint) *trace.Table {
	shardCols := []int{1, 2, 4, 8}
	t := &trace.Table{
		Title:  "kernel saturation: remote GM ops/sec into one home kernel (inproc, wall clock)",
		Header: []string{"workload", "p"},
	}
	for _, s := range shardCols {
		t.Header = append(t.Header, fmt.Sprintf("shards=%d", s))
	}
	type key struct {
		w string
		p int
	}
	rows := map[key]map[int]SaturationPoint{}
	var order []key
	for _, pt := range pts {
		w := pt.Workload
		if pt.Rings {
			w += "+rings" // ring-on legs get their own row
		}
		k := key{w, pt.NumPE}
		if rows[k] == nil {
			rows[k] = map[int]SaturationPoint{}
			order = append(order, k)
		}
		rows[k][pt.Shards] = pt
	}
	for _, k := range order {
		row := []string{k.w, fmt.Sprintf("%d", k.p)}
		for _, s := range shardCols {
			if pt, ok := rows[k][s]; ok {
				cell := fmt.Sprintf("%.0f", pt.OpsPerSec)
				if pt.Direct {
					cell += " (direct)"
				}
				row = append(row, cell)
			} else {
				row = append(row, "-")
			}
		}
		t.AddRow(row...)
	}
	return t
}
