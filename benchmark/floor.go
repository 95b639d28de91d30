package main

import (
	"errors"
	"fmt"
	"io"
	"slices"

	"repro/internal/gmem"
	"repro/internal/transport"
	"repro/internal/transport/inproc"
	"repro/internal/transport/tcpnet"
	"repro/internal/wire"
)

// The hand-assembled round trip: one remote read performed step by step in a
// single goroutine through the layers' public calls, with a span recorded
// around each call from this file. No kernel, no serve loop, no reply
// wake-up: what is left is the floor a message-path read cannot go below,
// and the difference to the measured read is what the runtime adds in
// hand-offs between goroutines (core.handoff_us).

// span is one recorded interval. Spans of one round trip share its request
// id; every step's parent is the round trip's root span.
type span struct {
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	Request uint64 `json:"request"`
	Parent  string `json:"parent,omitempty"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// floorStep is one row of the waterfall.
type floorStep struct {
	Name     string  `json:"name"`
	Layer    string  `json:"layer"`
	MedianNs float64 `json:"self_ns_median"`
}

type floorResult struct {
	Transport string      `json:"transport"`
	Words     int         `json:"words"`
	Trips     int         `json:"round_trips"`
	Steps     []floorStep `json:"steps"`
	SumNs     float64     `json:"floor_ns"`     // sum of the steps' median self times
	RootNs    float64     `json:"root_ns"`      // median of the whole round trip, clock reads included
	Spans     []span      `json:"spans_sample"` // the last round trip
}

var floorSteps = []struct{ name, layer string }{
	{"home_lookup", "gmem"},
	{"build_request", "wire"},
	{"send_request", "transport"}, // encodes and enqueues
	{"recv_request", "transport"}, // dequeues and decodes
	{"segment_read", "gmem"},
	{"build_reply", "wire"},
	{"send_reply", "transport"},
	{"recv_reply", "transport"},
	{"mailbox_put_take", "transport"},
	{"decode_words", "wire"},
}

// assembleFloor performs trips round trips reading words words over net.
func assembleFloor(net transport.Network, name string, words, trips int) (*floorResult, error) {
	n0, n1 := net.Node(0), net.Node(1)
	space := gmem.NewSpace(2, blockWords)
	dir := gmem.NewDirectory(2, 0)
	seg := gmem.NewSegment(space, 1)
	seg.SetDirectory(dir)
	addr := uint64(blockWords) // block 1, homed at kernel 1
	want := make([]int64, words)
	for i := range want {
		want[i] = int64(1000 + i)
	}
	seg.Write(addr, want)
	mb := n0.NewMailbox(4)
	buf := make([]int64, 0, words)
	out := make([]int64, 0, words)

	durs := make([][]float64, len(floorSteps))
	root := make([]float64, 0, trips)
	var last []span
	var t [11]int64 // step boundaries
	for trip := 0; trip < trips; trip++ {
		t[0] = now()
		home := dir.HomeOf(space, addr)
		t[1] = now()
		req := wire.GetMessage()
		req.Op, req.Src, req.Dst, req.Seq, req.Addr, req.Arg1 = wire.OpRead, 0, int32(home), uint64(trip+1), addr, int64(words)
		t[2] = now()
		n0.App().Send(home, req)
		t[3] = now()
		got, ok := n1.Recv()
		t[4] = now()
		if !ok {
			return nil, errors.New("transport stopped")
		}
		buf = seg.ReadAppend(buf[:0], got.Addr, int(got.Arg1))
		t[5] = now()
		resp := wire.GetMessage()
		resp.Op, resp.Src, resp.Dst, resp.Seq = wire.OpReadResp, got.Dst, got.Src, got.Seq
		resp.PutWords(buf)
		t[6] = now()
		n1.Svc().Send(int(got.Src), resp)
		t[7] = now()
		reply, ok := n0.Recv()
		t[8] = now()
		if !ok {
			return nil, errors.New("transport stopped")
		}
		mb.Put(reply)
		taken, _ := mb.Take()
		t[9] = now()
		out = taken.WordsInto(out)
		seq := taken.Seq
		wire.PutMessage(taken)
		wire.PutMessage(resp)
		wire.PutMessage(got)
		wire.PutMessage(req)
		t[10] = now()

		if seq != uint64(trip+1) || !slices.Equal(out, want) {
			return nil, fmt.Errorf("hand-assembled %s round trip %d returned seq %d, words %v", name, trip, seq, out)
		}
		for i := range floorSteps {
			durs[i] = append(durs[i], float64(t[i+1]-t[i]))
		}
		root = append(root, float64(t[10]-t[0]))
		if trip == trips-1 {
			last = append(last, span{Name: "roundtrip", Layer: "client", Request: seq, StartNs: t[0], EndNs: t[10]})
			for i, st := range floorSteps {
				last = append(last, span{Name: st.name, Layer: st.layer, Request: seq, Parent: "roundtrip", StartNs: t[i], EndNs: t[i+1]})
			}
		}
	}
	res := &floorResult{Transport: name, Words: words, Trips: trips, RootNs: median(root), Spans: last}
	for i, st := range floorSteps {
		med := median(durs[i])
		res.Steps = append(res.Steps, floorStep{Name: st.name, Layer: st.layer, MedianNs: med})
		res.SumNs += med
	}
	return res, nil
}

// measureFloor assembles the scalar and the 64-word round trip over inproc
// and over tcpnet, prints the waterfalls and returns them for the trace file.
func measureFloor(m map[string]float64, log io.Writer, trips int) ([]*floorResult, error) {
	var all []*floorResult
	inet := inproc.New(2)
	defer inet.Stop()
	tnet, err := tcpnet.NewLocal(2)
	if err != nil {
		return nil, fmt.Errorf("floor: %w", err)
	}
	defer tnet.Stop()
	for _, c := range []struct {
		net    transport.Network
		name   string
		words  int
		metric string
		scale  float64
	}{
		{inet, "inproc", 1, "floor.inproc_read_ns", 1},
		{inet, "inproc", blockWords, "floor.inproc_block_ns", 1},
		{tnet, "tcpnet", 1, "floor.tcp_read_us", 1e-3},
		{tnet, "tcpnet", blockWords, "floor.tcp_block_us", 1e-3},
	} {
		n := trips
		if c.name == "tcpnet" {
			n = trips / 4 // a TCP trip is ten times an inproc one
		}
		fr, err := assembleFloor(c.net, c.name, c.words, n)
		if err != nil {
			return nil, fmt.Errorf("floor: %w", err)
		}
		m[c.metric] = fr.SumNs * c.scale
		all = append(all, fr)
		fmt.Fprintf(log, "hand-assembled round trip, %s, %d word(s): floor %.0f ns (whole trip %.0f ns, %d trips)\n",
			c.name, c.words, fr.SumNs, fr.RootNs, n)
		for _, st := range fr.Steps {
			bar := int(40 * st.MedianNs / fr.SumNs)
			fmt.Fprintf(log, "  %-18s %-10s %9.0f ns  %s\n", st.Name, st.Layer, st.MedianNs, "########################################"[:bar])
		}
	}
	return all, nil
}
