package main

var workloadNames = []string{"gm_msg", "gm_onesided", "gm_tcp", "apps_inproc", "sim_figures"}

type metricSpec struct{ name, unit string }

// endToEnd and perLayer must match BENCHMARK.json (the smoke test checks
// they do). Every run prints every metric of its list; a per-layer row that
// a workload has nothing to say about reads 0.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"overhead_x", "ratio"},
	{"mix_overhead_x", "ratio"},
}

var perLayer = []metricSpec{
	// client: the benchmark's own view of the workload, tracing off.
	{"client.read_p50_us", "us"}, {"client.read_p99_us", "us"},
	{"client.write_p50_us", "us"}, {"client.write_p99_us", "us"},
	{"client.rmw_p50_us", "us"}, {"client.block_p50_us", "us"},
	{"client.gather64_p50_us", "us"}, {"client.barrier_p50_us", "us"},
	{"client.primary_p50_us", "us"}, {"client.substrate_p50_us", "us"}, {"client.units_per_s", "1/s"},
	{"client.cpu_us_per_unit", "us"}, {"client.allocs_per_unit", "count"},
	{"client.syscalls_per_unit", "count"}, {"client.peak_rss_mb", "MB"},
	// apps: one verified run (apps_inproc) or one family's point set
	// (sim_figures), beside its baseline.
	{"apps.gauss_ms", "ms"}, {"apps.gaussfine_ms", "ms"}, {"apps.dct_ms", "ms"},
	{"apps.knight_ms", "ms"}, {"apps.dct4_ms", "ms"}, {"apps.dct16_ms", "ms"},
	{"apps.gauss_base_ms", "ms"}, {"apps.gaussfine_base_ms", "ms"}, {"apps.dct_base_ms", "ms"},
	{"apps.knight_base_ms", "ms"}, {"apps.dct4_base_ms", "ms"}, {"apps.dct16_base_ms", "ms"},
	{"apps.gauss_msgs", "count"}, {"apps.gaussfine_msgs", "count"}, {"apps.dct_msgs", "count"}, {"apps.knight_msgs", "count"},
	{"apps.gauss_remote_ops", "count"}, {"apps.gaussfine_remote_ops", "count"},
	{"apps.dct_remote_ops", "count"}, {"apps.knight_remote_ops", "count"},
	// wire
	{"wire.encode_ns", "ns"}, {"wire.decode_ns", "ns"},
	{"wire.encode_block_ns", "ns"}, {"wire.decode_block_ns", "ns"}, {"wire.bytes_per_op", "B"},
	// transport/inproc and its substrate
	{"inproc.oneway_ns", "ns"}, {"inproc.mailbox_ns", "ns"}, {"inproc.pingpong_us", "us"}, {"chan.pingpong_us", "us"},
	// transport/tcpnet and its substrate
	{"tcpnet.pingpong_us", "us"}, {"tcpnet.oneway_ns", "ns"}, {"tcp.raw_echo_us", "us"}, {"tcpnet.syscalls_per_msg", "count"},
	// gmem
	{"gmem.seg_read_ns", "ns"}, {"gmem.seg_write_ns", "ns"}, {"gmem.seg_fetchadd_ns", "ns"},
	{"gmem.seg_read64_ns", "ns"}, {"gmem.direct_read_ns", "ns"}, {"gmem.ring_write_ns", "ns"},
	{"gmem.wcbuf_put_ns", "ns"}, {"gmem.wcbuf_drain_ns_per_word", "ns"},
	{"gmem.cache_lookup_ns", "ns"}, {"gmem.home_of_ns", "ns"},
	// core
	{"core.msgs_per_op", "count"}, {"core.direct_share", "ratio"}, {"core.ring_share", "ratio"},
	{"core.sharded_share", "ratio"}, {"core.local_read_ns", "ns"},
	{"core.service_read_ns", "ns"}, {"core.service_write_ns", "ns"}, {"core.service_fetchadd_ns", "ns"},
	{"core.rtt_read_ns", "ns"}, {"core.handoff_us", "us"},
	{"core.retries", "count"}, {"core.stale_replies", "count"}, {"core.dup_requests", "count"},
	{"core.ns_denials", "count"}, {"core.cluster_start_ms", "ms"},
	// psync
	{"psync.arrive_ns", "ns"}, {"psync.lock_release_ns", "ns"},
	{"psync.barrier_msgs", "count"}, {"psync.barrier_wait_mean_us", "us"},
	// sim, ethernet, transport/simnet, platform
	{"sim.event_ns", "ns"}, {"ethernet.frame_wall_ns", "ns"}, {"simnet.msg_wall_us", "us"},
	{"sim.virt_elapsed_us.gauss", "us"}, {"sim.virt_elapsed_us.dct4", "us"},
	{"sim.virt_elapsed_us.dct16", "us"}, {"sim.virt_elapsed_us.knight", "us"},
	{"sim.msgs.gauss", "count"}, {"sim.msgs.dct4", "count"}, {"sim.msgs.dct16", "count"}, {"sim.msgs.knight", "count"},
	{"ethernet.collisions.gauss", "count"}, {"ethernet.collisions.dct4", "count"},
	{"ethernet.collisions.dct16", "count"}, {"ethernet.collisions.knight", "count"},
	// trace
	{"trace.hist_observe_ns", "ns"}, {"trace.span_record_ns", "ns"},
	{"trace.overhead_pct", "%"}, {"trace.spans_recorded", "count"},
	// the hand-assembled round trip
	{"floor.inproc_read_ns", "ns"}, {"floor.inproc_block_ns", "ns"},
	{"floor.tcp_read_us", "us"}, {"floor.tcp_block_us", "us"},
}
