// Package debugsrv is the node debug endpoint shared by the dsenode and
// dsesched binaries: a JSON metrics snapshot at /metrics and the standard
// pprof handlers under /debug/pprof/. It reads the shared live round-trip
// histogram while the node is still running — the concurrency the
// trace.Histogram atomics exist for — and, when a scheduler is attached,
// folds its queue-depth/utilization gauges and per-job rows into the same
// document, so one endpoint answers "what is this node doing" for both
// single-program and multi-job operation.
package debugsrv

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/ssi"
	"repro/internal/trace"
)

// metricsSchemaVersion versions the /metrics JSON document.
const metricsSchemaVersion = 1

// Config attaches optional sources to the endpoint.
type Config struct {
	// Node and N identify this kernel and the cluster size.
	Node, N int
	// Sched, when non-nil, is called per request for the scheduler's gauge
	// snapshot (queue depth, utilization, throughput — any JSON-encodable
	// value); it appears under "sched" in the document.
	Sched func() interface{}
	// Jobs, when non-nil, is called per request for the scheduler's per-job
	// rows (the SSI process-table view of multi-job operation); they appear
	// under "jobs".
	Jobs func() []ssi.JobRow
}

// Server serves live node observability over HTTP.
type Server struct {
	cfg     Config
	start   time.Time
	liveRTT *trace.Histogram // shared with every PE via core.Config.LiveRTT

	mu    sync.Mutex
	state string // "running", then "done"
	final *core.Result

	ln  net.Listener
	srv *http.Server
}

// Start listens on addr and serves /metrics and /debug/pprof/.
func Start(addr string, cfg Config) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	ds := &Server{
		cfg:     cfg,
		start:   time.Now(),
		liveRTT: &trace.Histogram{},
		state:   "running",
		ln:      ln,
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", ds.serveMetrics)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ds.srv = &http.Server{Handler: mux}
	go ds.srv.Serve(ln)
	return ds, nil
}

// Addr is the bound listen address (resolves ":0" requests).
func (ds *Server) Addr() string { return ds.ln.Addr().String() }

// LiveRTT is the histogram to share with the cluster via
// core.Config.LiveRTT; /metrics reads it while the run is live.
func (ds *Server) LiveRTT() *trace.Histogram { return ds.liveRTT }

// Finish records the completed run; /metrics switches to the final totals.
func (ds *Server) Finish(res *core.Result) {
	ds.mu.Lock()
	ds.state = "done"
	ds.final = res
	ds.mu.Unlock()
}

// Close stops serving.
func (ds *Server) Close() { ds.srv.Close() }

// metricsJSON is the /metrics document.
type metricsJSON struct {
	SchemaVersion int                  `json:"schema_version"`
	Node          int                  `json:"node"`
	NumPE         int                  `json:"num_pe"`
	State         string               `json:"state"`
	UptimeSeconds float64              `json:"uptime_seconds"`
	RTTUS         trace.LatencySummary `json:"rtt_us"`

	// Scheduler gauges and per-job rows, present when a scheduler is
	// attached (dsesched).
	Sched interface{}  `json:"sched,omitempty"`
	Jobs  []ssi.JobRow `json:"jobs,omitempty"`

	// Final run totals, present once State is "done".
	ElapsedUS    int64  `json:"elapsed_us,omitempty"`
	MsgsSent     uint64 `json:"msgs_sent,omitempty"`
	BytesSent    uint64 `json:"bytes_sent,omitempty"`
	RemoteGM     uint64 `json:"remote_gm,omitempty"`
	Retries      uint64 `json:"retries,omitempty"`
	StaleReplies uint64 `json:"stale_replies,omitempty"`

	// Checkpoint/restart counters (zero and omitted unless the run used
	// the checkpoint subsystem).
	Checkpoints   uint64 `json:"checkpoints,omitempty"`
	Restores      uint64 `json:"restores,omitempty"`
	SnapshotBytes uint64 `json:"snapshot_bytes,omitempty"`
	RollbackOps   uint64 `json:"rollback_ops,omitempty"`
}

func (ds *Server) serveMetrics(w http.ResponseWriter, r *http.Request) {
	ds.mu.Lock()
	state, final := ds.state, ds.final
	ds.mu.Unlock()

	doc := metricsJSON{
		SchemaVersion: metricsSchemaVersion,
		Node:          ds.cfg.Node,
		NumPE:         ds.cfg.N,
		State:         state,
		UptimeSeconds: time.Since(ds.start).Seconds(),
		RTTUS:         ds.liveRTT.Summarize(),
	}
	if ds.cfg.Sched != nil {
		doc.Sched = ds.cfg.Sched()
	}
	if ds.cfg.Jobs != nil {
		doc.Jobs = ds.cfg.Jobs()
	}
	if final != nil {
		doc.ElapsedUS = int64(final.Elapsed / sim.Microsecond)
		doc.MsgsSent = final.Total.MsgsSent
		doc.BytesSent = final.Total.BytesSent
		doc.RemoteGM = final.Total.RemoteGM
		doc.Retries = final.Total.Retries
		doc.StaleReplies = final.Total.StaleReplies
		doc.Checkpoints = final.Total.Checkpoints
		doc.Restores = final.Total.Restores
		doc.SnapshotBytes = final.Total.SnapshotBytes
		doc.RollbackOps = final.Total.RollbackOps
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(doc)
}
