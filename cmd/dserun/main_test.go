package main

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestParseKill(t *testing.T) {
	for _, tc := range []struct {
		spec   string
		victim int
		at     sim.Duration
		err    string // substring of the error; "" = accepted
	}{
		{spec: "2@200ms", victim: 2, at: 200 * sim.Millisecond},
		{spec: "0@1.5s", victim: 0, at: 1500 * sim.Millisecond},
		{spec: "2", err: "want pe@time"},
		{spec: "-1@200ms", err: "PE must be 0..3"},
		{spec: "4@200ms", err: "PE must be 0..3"},
		{spec: "x@200ms", err: "PE must be 0..3"},
		{spec: "2@0s", err: `bad time "0s"`},
		{spec: "2@-5ms", err: `bad time "-5ms"`},
		{spec: "2@soon", err: `bad time "soon"`},
	} {
		victim, at, err := parseKill(tc.spec, 4)
		if tc.err != "" {
			if err == nil || !strings.Contains(err.Error(), tc.err) {
				t.Errorf("parseKill(%q) = %d, %v, %v; want an error containing %q", tc.spec, victim, at, err, tc.err)
			}
			continue
		}
		if err != nil || victim != tc.victim || at != tc.at {
			t.Errorf("parseKill(%q) = %d, %v, %v; want %d, %v", tc.spec, victim, at, err, tc.victim, tc.at)
		}
	}
}
