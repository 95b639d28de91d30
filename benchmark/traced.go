package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/trace"
	"repro/internal/wire"
)

// tracedWindows is how many windows each of the two deployments of a traced
// run measures (tracing off and tracing on, alternating).
const tracedWindows = 3

// Shares of a traced run's --seconds: the layer measurements take the first
// part, the paired workload windows the rest.
const layerShare = 0.4

// runTraced is the --trace 1 run: per-layer metrics. It measures every
// layer on its own, assembles the round-trip floor by hand, and then runs
// the workload twice side by side, Config.Tracing off and on, a window of
// one after a window of the other; the difference between the two is what
// tracing costs. Nothing is stamped inside the program: the spans are the
// ones core.Result already carries.
func runTraced(o options) (*result, error) {
	m := map[string]float64{}
	if err := measureLayers(m, time.Duration(o.seconds*layerShare*float64(time.Second)), o.seed); err != nil {
		return nil, err
	}
	floors, err := measureFloor(m, o.log, 2000)
	if err != nil {
		return nil, err
	}

	// Index 0 is the deployment with tracing off, 1 the one with tracing on.
	var pair [2]runner
	for i := range pair {
		r, err := newRunner(o.workload)
		if err == nil {
			err = r.start(o.seed, i == 1)
		}
		if err != nil {
			if i == 1 {
				_, _ = pair[0].stop() // a second error would only bury the one returned
			}
			return nil, err
		}
		pair[i] = r
	}
	d := time.Duration(o.seconds * (1 - layerShare) * float64(time.Second) / (2 * tracedWindows))
	var wins [2][]window
	var werr error
	for i := 0; i < tracedWindows && werr == nil; i++ {
		for j, r := range pair {
			var w []window
			if w, werr = measureWindows(r, 1, d); werr != nil {
				break
			}
			wins[j] = append(wins[j], w...)
		}
	}
	pc, perr := pair[0].stop()
	tc, terr := pair[1].stop()
	if werr != nil {
		return nil, werr
	}
	pw, tw := wins[0], wins[1]

	res := &result{Metrics: map[string]metricValue{}}
	verdict := tally(o, res, append(append([]window(nil), pw...), tw...), perr, terr)
	clientMetrics(m, pair[0].classes(), pw)
	if pc != nil {
		counterMetrics(m, pc)
	}
	if base, _ := bestRound(pw, 0); base > 0 {
		on, _ := bestRound(tw, 0)
		m["trace.overhead_pct"] = 100 * (on/base - 1)
	}
	var spanSummary map[string]any
	if tc != nil {
		m["trace.spans_recorded"] = float64(len(tc.spans))
		spanSummary = summariseSpans(tc)
	}
	for _, s := range perLayer {
		res.Metrics[s.name] = metricValue{Value: m[s.name], Unit: s.unit}
	}

	fmt.Fprintln(o.log, "tracing off:")
	printWindows(o.log, pair[0].classes(), pw)
	fmt.Fprintln(o.log, "tracing on:")
	printWindows(o.log, pair[0].classes(), tw)
	for _, s := range perLayer {
		fmt.Fprintf(o.log, "%-34s %14.6g %s\n", s.name, m[s.name], s.unit)
	}
	if err := writeDetail(o, "trace", map[string]any{
		"workload": o.workload, "seed": o.seed, "seconds": o.seconds, "gomaxprocs": runtime.GOMAXPROCS(0),
		"hand_assembled_round_trips": floors, "program_spans": spanSummary,
		"windows_tracing_off": windowDetail(pw), "windows_tracing_on": windowDetail(tw), "metrics": res.Metrics,
	}); err != nil {
		return res, err
	}
	return res, verdict
}

// clientMetrics fills the client.* and apps.* rows: the benchmark's own view
// of the untraced windows. Rows of classes the workload does not have stay 0.
func clientMetrics(m map[string]float64, classes []string, ws []window) {
	med := func(f func(w *window) float64) float64 {
		var v []float64
		for i := range ws {
			v = append(v, f(&ws[i]))
		}
		return median(v)
	}
	for c, name := range classes {
		c := c
		p50 := med(func(w *window) float64 { return w.class[c].p50Ns })
		p99 := med(func(w *window) float64 { return w.class[c].p99Ns })
		sub := med(func(w *window) float64 { return w.class[c].subNs })
		switch name {
		case "read", "write":
			m["client."+name+"_p50_us"] = p50 / 1e3
			m["client."+name+"_p99_us"] = p99 / 1e3
		case "rmw", "block", "gather64", "barrier":
			m["client."+name+"_p50_us"] = p50 / 1e3
		default: // an application or a figure family
			m["apps."+name+"_ms"] = p50 / 1e6
			m["apps."+name+"_base_ms"] = sub / 1e6
		}
		if c == 0 {
			m["client.primary_p50_us"] = p50 / 1e3
			m["client.substrate_p50_us"] = sub / 1e3
		}
	}
	perUnit := func(f func(w *window) float64) float64 {
		return med(func(w *window) float64 {
			if w.units == 0 {
				return 0
			}
			return f(w) / float64(w.units)
		})
	}
	m["client.units_per_s"] = med(func(w *window) float64 {
		if w.dseWallNs == 0 {
			return 0
		}
		return float64(w.units) / (float64(w.dseWallNs) / 1e9)
	})
	m["client.cpu_us_per_unit"] = perUnit(func(w *window) float64 { return float64(w.cpuNs) / 1e3 })
	m["client.allocs_per_unit"] = perUnit(func(w *window) float64 { return float64(w.mallocs) })
	m["client.syscalls_per_unit"] = perUnit(func(w *window) float64 { return float64(w.syscalls) })
	m["client.peak_rss_mb"] = peakRSSMB()
}

// counterMetrics fills the rows read from core.Result after the untraced
// deployment was torn down.
func counterMetrics(m map[string]float64, c *counters) {
	t := &c.total
	share := func(part, whole uint64) float64 {
		if whole == 0 {
			return 0
		}
		return float64(part) / float64(whole)
	}
	m["core.msgs_per_op"] = gmMsgsPerOp(c)
	m["core.direct_share"] = share(t.DirectGM, t.RemoteGM)
	m["core.ring_share"] = share(t.RingGM, t.RemoteGM)
	m["core.sharded_share"] = share(t.ShardedMsgs, t.MsgsRecv)
	m["core.service_read_ns"] = float64(t.ServiceByOp[wire.OpRead].Mean())
	m["core.service_write_ns"] = float64(t.ServiceByOp[wire.OpWrite].Mean())
	m["core.service_fetchadd_ns"] = float64(t.ServiceByOp[wire.OpFetchAdd].Mean())
	m["core.rtt_read_ns"] = float64(t.RTTByOp[wire.OpRead].Mean())
	// Time a read spent neither being served nor inside the transport: the
	// goroutine hand-offs and wake-ups on its way there and back.
	if rtt := m["core.rtt_read_ns"]; rtt > 0 && c.onewayMetric != "" {
		m["core.handoff_us"] = (rtt - m["core.service_read_ns"] - 2*m[c.onewayMetric]) / 1e3
	}
	m["core.retries"] = float64(t.Retries)
	m["core.stale_replies"] = float64(t.StaleReplies)
	m["core.dup_requests"] = float64(t.DupRequests)
	m["core.ns_denials"] = float64(t.NsDenials)
	if c.gmOps > 0 {
		m["wire.bytes_per_op"] = float64(t.BytesSent) / float64(c.gmOps)
	}
	m["psync.barrier_msgs"] = share(t.ByOp[wire.OpBarrierArrive].Msgs+t.ByOp[wire.OpBarrierRelease].Msgs, t.Barriers)
	m["psync.barrier_wait_mean_us"] = float64(t.BarrierWait.Mean()) / 1e3
	for k, v := range c.extra {
		m[k] = v
	}
}

// summariseSpans reduces the spans the traced deployment recorded to the
// phases core.Result exposes: for request spans Start→Sent (encode and send)
// and Sent→End (service, reply and wake-up), and the service spans' length.
func summariseSpans(c *counters) map[string]any {
	type acc struct{ n, send, wait, total int64 }
	byKind := map[string]*acc{}
	for i := range c.spans {
		s := &c.spans[i]
		key := s.Kind.String()
		if s.Kind == trace.SpanRequest || s.Kind == trace.SpanService {
			key += ":" + s.Op.String()
		}
		a := byKind[key]
		if a == nil {
			a = &acc{}
			byKind[key] = a
		}
		a.n++
		a.total += int64(s.End - s.Start)
		if s.Kind == trace.SpanRequest && s.Sent >= s.Start {
			a.send += int64(s.Sent - s.Start)
			a.wait += int64(s.End - s.Sent)
		}
	}
	out := map[string]any{}
	for k, a := range byKind {
		out[k] = map[string]float64{"spans": float64(a.n), "mean_ns": float64(a.total) / float64(a.n),
			"mean_send_ns": float64(a.send) / float64(a.n), "mean_wait_ns": float64(a.wait) / float64(a.n)}
	}
	return map[string]any{
		"by_kind":                 out,
		"rtt_read_mean_ns":        float64(c.total.RTTByOp[wire.OpRead].Mean()),
		"service_read_mean_ns":    float64(c.total.ServiceByOp[wire.OpRead].Mean()),
		"barrier_wait_mean_ns":    float64(c.total.BarrierWait.Mean()),
		"spans_retained_of_rings": len(c.spans),
	}
}
