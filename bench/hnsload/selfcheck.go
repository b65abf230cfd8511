package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// benchmarkFile is BENCHMARK.json as far as the harness reads it.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// quartiles returns Q1 and Q3 of v the way Python's
// statistics.quantiles(v, n=4) does (the exclusive method), which is how
// the driver computes a metric's spread.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(i int) float64 { // i-th of n-1 cut points
		m := len(s)
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := i*(m+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// demotionBound is the issue's bound on every end-to-end metric. A metric
// whose spread over the self-check's runs is beyond it stays demoted.
const demotionBound = 0.10

// selfcheck runs every workload `runs` times, seeds 1..runs, the odd
// runs forming set A and the even ones set B — two sets of runs of the
// same code, interleaved in time. For each end-to-end metric it prints
// both set medians and their difference, the min–max spread and the
// quartile spread of all the runs, and the bound. A metric whose set
// medians differ or whose min–max spread reaches beyond its bound cannot
// gate: it would reject later changes falsely, and belongs among the
// diagnostics. The metrics that were demoted that way are listed under
// the gates, against the 10 % they were asked to hold.
func selfcheck(cfg config, runs int) int {
	bf, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "hnsload:", err)
		return 1
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "hnsload:", err)
		return 1
	}
	type row struct {
		name  string
		bound float64
		gate  bool
	}
	var rows []row
	for _, m := range bf.EndToEnd {
		rows = append(rows, row{m.Name, m.Bound, true})
	}
	for _, m := range demoted {
		rows = append(rows, row{m.name, demotionBound, false})
	}
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	fmt.Fprintf(out, "hnsload selfcheck: %d runs per workload (set A = odd seeds, set B = even), -seconds %d\n", runs, bf.RunSeconds)
	code := 0
	for _, w := range bf.Workloads {
		if cfg.workload != "" && cfg.workload != w.Name {
			continue
		}
		values := make(map[string][]float64)
		for seed := 1; seed <= runs; seed++ {
			cmd := exec.Command(self, "-bin", cfg.binDir, "-run", cfg.runDir, "-out", cfg.outDir,
				"--workload", w.Name, "--seed", strconv.Itoa(seed), "--seconds", strconv.Itoa(bf.RunSeconds), "--trace", "0")
			cmd.Stderr = os.Stderr
			// A run must not outlive an interrupted self-check; SIGTERM
			// lets it stop its daemons on the way out.
			cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGTERM}
			stdout, err := cmd.Output()
			if err != nil {
				fmt.Fprintf(os.Stderr, "hnsload: %s seed %d: %v\n", w.Name, seed, err)
				return 1
			}
			lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
			var res result
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil || !res.Correct {
				fmt.Fprintf(os.Stderr, "hnsload: %s seed %d: bad result line (%v)\n", w.Name, seed, err)
				return 1
			}
			// Every measured metric is read off the run's table (name,
			// value, unit): the result line carries the gates alone.
			for _, line := range lines {
				if f := strings.Fields(string(line)); len(f) == 3 {
					if v, err := strconv.ParseFloat(f[1], 64); err == nil {
						values[f[0]] = append(values[f[0]], v)
					}
				}
			}
		}
		fmt.Fprintf(out, "\n%s\n  %-24s %12s %12s %8s %9s %9s %7s\n", w.Name,
			"metric", "median A", "median B", "A-B %", "min-max %", "IQR %", "bound %")
		for _, m := range rows {
			v := values[m.name]
			med := median(v)
			if len(v) != runs || med == 0 {
				continue // the timing of an op this workload does not do
			}
			var a, b []float64
			for i, x := range v {
				if i%2 == 0 {
					a = append(a, x)
				} else {
					b = append(b, x)
				}
			}
			sorted := append([]float64(nil), v...)
			sort.Float64s(sorted)
			q1, q3 := quartiles(v)
			diff := 100 * (median(a) - median(b)) / med
			minmax := 100 * (sorted[len(sorted)-1] - sorted[0]) / med
			iqr := 100 * (q3 - q1) / med
			verdict := ""
			if abs(diff) > 100*m.bound || minmax > 100*m.bound {
				if m.gate {
					verdict = "  EXCEEDS ITS BOUND"
					code = 1
				} else {
					verdict = "  not gated: beyond 10 %"
				}
			}
			fmt.Fprintf(out, "  %-24s %12.3f %12.3f %+8.2f %9.2f %9.2f %7.0f%s\n",
				m.name, median(a), median(b), diff, minmax, iqr, 100*m.bound, verdict)
		}
		fmt.Fprintf(out, "  every run, in seed order:\n")
		for _, m := range append([]row{{name: "machine.spin_ms"}}, rows...) {
			if median(values[m.name]) == 0 {
				continue
			}
			fmt.Fprintf(out, "  %-24s", m.name)
			for _, x := range values[m.name] {
				fmt.Fprintf(out, " %10.3f", x)
			}
			fmt.Fprintln(out)
		}
		out.Flush()
	}
	return code
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
