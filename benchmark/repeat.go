package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// benchmarkFile is the contract this benchmark is written to; -repeat reads
// the bounds from it.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runRepeat runs n sets as child processes of this binary (a fresh process
// per run, as the driver does, each set with its own seed) and prints, per
// workload and end-to-end metric, the median, the quartiles and the spread
// between them as a share of the median, against the bound BENCHMARK.json
// fixes. With -trace 1 every set also makes the traced run, and the
// per-layer medians are listed as well. With n == 1 the children's own
// reports are passed through.
func runRepeat(o options, n int) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	bounds := map[string]float64{}
	if b, err := os.ReadFile("BENCHMARK.json"); err == nil {
		var bf benchmarkFile
		if err := json.Unmarshal(b, &bf); err != nil {
			return fmt.Errorf("BENCHMARK.json: %w", err)
		}
		for _, m := range bf.EndToEnd {
			bounds[m.Name] = m.Bound
		}
	} else {
		fmt.Fprintln(o.log, "no BENCHMARK.json in the working directory: spreads are printed without bounds")
	}
	workloads := workloadNames
	if o.workload != "" {
		workloads = []string{o.workload}
	}
	specs := endToEnd
	kinds := []string{"0"}
	if o.trace {
		specs = append(append([]metricSpec(nil), endToEnd...), perLayer...)
		kinds = append(kinds, "1")
	}
	values := map[string]map[string][]float64{} // workload -> metric -> one value per set
	for set := 0; set < n; set++ {
		for _, w := range workloads {
			if values[w] == nil {
				values[w] = map[string][]float64{}
			}
			for _, kind := range kinds {
				cmd := exec.Command(exe, "-workload", w, "-seed", strconv.FormatUint(o.seed+uint64(set), 10),
					"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", kind, "-out", o.out)
				cmd.Stderr = os.Stderr
				out, err := cmd.Output()
				if n == 1 {
					if _, werr := o.log.Write(out); werr != nil {
						return werr
					}
				}
				if err != nil {
					return fmt.Errorf("set %d, %s, trace %s: %w", set, w, kind, err)
				}
				lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
				var res result
				if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
					return fmt.Errorf("set %d, %s, trace %s: result line: %w", set, w, kind, err)
				}
				for name, m := range res.Metrics {
					values[w][name] = append(values[w][name], m.Value)
				}
				fmt.Fprintf(o.log, "set %d  %-12s trace %s  attempted %d failed %d\n", set, w, kind, res.Attempted, res.Failed)
			}
		}
	}
	fmt.Fprintf(o.log, "\n%-12s %-34s %-6s %12s %12s %12s %8s %7s\n", "workload", "metric", "unit", "q1", "median", "q3", "spread", "bound")
	wide := 0
	for _, w := range workloads {
		for _, m := range specs {
			q1, med, q3 := quartiles(values[w][m.name])
			spread := 0.0
			if med != 0 {
				spread = (q3 - q1) / med
			}
			line := fmt.Sprintf("%-12s %-34s %-6s %12.5g %12.5g %12.5g %7.1f%%", w, m.name, m.unit, q1, med, q3, 100*spread)
			if b, ok := bounds[m.name]; ok {
				line += fmt.Sprintf(" %6.0f%%", 100*b)
				if spread > b && m.name != "setup_s" {
					line += "  WIDER THAN BOUND"
					wide++
				}
			}
			fmt.Fprintln(o.log, line)
		}
	}
	if wide > 0 {
		return fmt.Errorf("%d metrics spread wider than their bound", wide)
	}
	return nil
}

// quartiles cuts v the way Python's statistics.quantiles(v, n=4) does (the
// exclusive method), which is how the driver computes a metric's spread.
func quartiles(v []float64) (q1, med, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	at := func(i int) float64 { // the i-th quartile
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}
