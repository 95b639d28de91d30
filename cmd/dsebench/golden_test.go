package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// goldens pins every deterministic number dsebench prints: virtual times,
// message and byte counts, latency quantiles, tier counters, speed-up
// ratios — all pure functions of the seed on the simulated cluster, so they
// are compared exactly. A protocol change that legitimately moves one
// regenerates the file in the same commit by redirecting the same command,
//
//	go run ./cmd/dsebench -all -quick > cmd/dsebench/testdata/all_quick.txt
//
// and the reviewer reads the diff. Wall-clock numbers never belong here;
// they are benchmark/'s.
var goldens = []struct{ args, file string }{
	{"-all -quick", "all_quick.txt"},
	{"-ablation -quick", "ablation_quick.txt"},
	{"-msgstats", "msgstats.txt"},
	{"-modes", "modes.txt"},
	{"-latency -quick", "latency_quick.txt"},
}

// wallClock matches the one nondeterministic fragment of the output.
var wallClock = regexp.MustCompile(`regenerated in [^)]*`)

func TestGoldenOutput(t *testing.T) {
	for _, g := range goldens {
		t.Run(g.file, func(t *testing.T) {
			t.Parallel()
			want, err := os.ReadFile(filepath.Join("testdata", g.file))
			if err != nil {
				t.Fatal(err)
			}
			var out, errw bytes.Buffer
			if code := run(strings.Fields(g.args), &out, &errw); code != 0 {
				t.Fatalf("dsebench %s: exit %d: %s", g.args, code, errw.String())
			}
			got := strings.Split(string(wallClock.ReplaceAll(out.Bytes(), nil)), "\n")
			exp := strings.Split(string(wallClock.ReplaceAll(want, nil)), "\n")
			for i := 0; i < len(got) || i < len(exp); i++ {
				var gl, el string
				if i < len(got) {
					gl = got[i]
				}
				if i < len(exp) {
					el = exp[i]
				}
				if gl != el {
					t.Fatalf("dsebench %s differs from testdata/%s at line %d:\n got: %q\nwant: %q\n"+
						"(deterministic output is compared exactly; if the change is intended, regenerate the file with\n"+
						"  go run ./cmd/dsebench %s > cmd/dsebench/testdata/%s)",
						g.args, g.file, i+1, gl, el, g.args, g.file)
				}
			}
		})
	}
}
