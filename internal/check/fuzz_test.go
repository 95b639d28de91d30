package check

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/sim"
)

// A fuzzed history is one header byte — the restored baseline of word 8, none
// when zero — then up to maxFuzzEvents events of eventBytes each:
//
//	[0]    PE (bits 0–1), Kind (bits 2–4), Mode (bits 5–6), Failed (bit 7)
//	[1]    word 8·(1 + b%3) for a memory op, id b%3 for a sync op
//	[2]    Ok (bit 0), Cached (bit 1)
//	[3:9]  Arg1, Arg2, Out as little-endian int16
//	[9:11] Inv, Resp
//
// Mode 3 is no tier's tag; Inv need not be sorted nor Resp follow it. Seq is
// the event's index, as hist numbers the unit tests' events.
const (
	eventBytes    = 11
	maxFuzzEvents = 48
)

func decodeHistory(data []byte) *History {
	h := &History{}
	if len(data) == 0 {
		return h
	}
	if data[0] != 0 {
		h.Baseline = map[uint64]int64{8: int64(data[0])}
	}
	for b := data[1:]; len(b) >= eventBytes && len(h.Events) < maxFuzzEvents; b = b[eventBytes:] {
		e := Event{
			PE:     int32(b[0] & 3),
			Seq:    int32(len(h.Events)),
			Kind:   Kind(b[0] >> 2 & 7),
			Mode:   b[0] >> 5 & 3,
			Failed: b[0]&0x80 != 0,
			Ok:     b[2]&1 != 0,
			Cached: b[2]&2 != 0,
			Arg1:   int64(int16(binary.LittleEndian.Uint16(b[3:]))),
			Arg2:   int64(int16(binary.LittleEndian.Uint16(b[5:]))),
			Out:    int64(int16(binary.LittleEndian.Uint16(b[7:]))),
			Inv:    sim.Time(b[9]),
			Resp:   sim.Time(b[10]),
		}
		e.Addr = uint64(b[1] % 3)
		if e.Kind <= KindCAS {
			e.Addr = 8 * (e.Addr + 1)
		}
		h.Events = append(h.Events, e)
	}
	return h
}

// encodeHistory is decodeHistory's inverse for the histories it can express.
func encodeHistory(h *History) []byte {
	out := []byte{byte(h.Baseline[8])}
	for _, e := range h.Events {
		b := make([]byte, eventBytes)
		b[0] = byte(e.PE) | byte(e.Kind)<<2 | e.Mode<<5
		if e.Failed {
			b[0] |= 0x80
		}
		b[1] = byte(e.Addr)
		if e.Kind <= KindCAS {
			b[1] = byte(e.Addr/8 - 1)
		}
		if e.Ok {
			b[2] |= 1
		}
		if e.Cached {
			b[2] |= 2
		}
		binary.LittleEndian.PutUint16(b[3:], uint16(e.Arg1))
		binary.LittleEndian.PutUint16(b[5:], uint16(e.Arg2))
		binary.LittleEndian.PutUint16(b[7:], uint16(e.Out))
		b[9], b[10] = byte(e.Inv), byte(e.Resp)
		out = append(out, b...)
	}
	return out
}

// FuzzCheck feeds Check arbitrary short histories: up to four PEs, three
// words, every kind and tier tag, failed and cached events and arbitrary
// intervals. Whatever it reports must be deterministic, bounded, and cite
// only events of the history.
func FuzzCheck(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		h := decodeHistory(data)
		rep := Check(h)
		if again := Check(h).String(); again != rep.String() {
			t.Fatalf("two checks of one history differ:\n%s\n---\n%s", rep, again)
		}
		if len(rep.Violations) > maxViolations {
			t.Fatalf("%d violations, more than maxViolations", len(rep.Violations))
		}
		events := make(map[Event]bool, len(h.Events))
		for _, e := range h.Events {
			events[e] = true
		}
		for _, v := range rep.Violations {
			for _, e := range v.Events {
				if !events[e] {
					t.Fatalf("%s cites %v, which is not in the history", v.Kind, e)
				}
			}
		}
	})
}

// TestFuzzCheckCorpus keeps one seed input per tier rule case under
// testdata/fuzz/FuzzCheck, each decoding to exactly that case's history.
// Run with CHECK_WRITE_CORPUS=1 to rewrite the files after changing a case.
// The corpus's unit-* inputs are the histories of the other TestCheck* tests
// and of TestReportString, in the same encoding.
func TestFuzzCheckCorpus(t *testing.T) {
	write := os.Getenv("CHECK_WRITE_CORPUS") != ""
	for _, c := range tierCases {
		h := histIn(c.mode, append([]Event(nil), c.events...)...)
		data := encodeHistory(h)
		if got := decodeHistory(data); !reflect.DeepEqual(got, h) {
			t.Errorf("%s: history does not survive the fuzz encoding:\n got %v\nwant %v", c.name, got.Events, h.Events)
			continue
		}
		want := []byte(fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data))
		path := filepath.Join("testdata", "fuzz", "FuzzCheck", c.name)
		if write {
			if err := os.WriteFile(path, want, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s: seed corpus file stale or missing (%v); rerun with CHECK_WRITE_CORPUS=1", path, err)
		}
	}
}
