package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// steadiness runs the workload in runs fresh processes, on seeds seed,
// seed+1, ..., and prints for every metric the median, the quartiles and
// the relative IQR, computed as Python's statistics.quantiles(n=4) does.
func steadiness(workload string, seed int64, seconds int, traced bool, runs int, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	values := map[string][]float64{}
	units := map[string]string{}
	status := 0
	for i := 0; i < runs; i++ {
		s := seed + int64(i)
		cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatInt(s, 10),
			"--seconds", strconv.Itoa(seconds), "--trace", trace)
		var out bytes.Buffer
		cmd.Stdout = &out
		cmd.Stderr = stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "benchmark: seed %d: %v\n", s, err)
			return 1
		}
		lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
		var res result
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
			fmt.Fprintf(stderr, "benchmark: seed %d: %v\n", s, err)
			return 1
		}
		if !res.Correct {
			status = 1
		}
		fmt.Fprintf(stdout, "seed %d: correct=%v attempted=%d failed=%d (share %.6f)",
			s, res.Correct, res.Attempted, res.Failed, float64(res.Failed)/float64(res.Attempted))
		for _, spec := range endToEnd {
			if m, ok := res.Metrics[spec.Name]; ok {
				fmt.Fprintf(stdout, " %s=%.4g", spec.Name, m.Value)
			}
		}
		fmt.Fprintln(stdout)
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
	}
	names := make([]string, 0, len(values))
	for n := range values {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(stdout, "%-36s %14s %14s %14s %10s  %s\n", "metric", "median", "q1", "q3", "riqr", "unit")
	for _, n := range names {
		v := append([]float64(nil), values[n]...)
		sort.Float64s(v)
		q1, q2, q3 := quartiles(v)
		riqr := 0.0
		if q2 != 0 {
			riqr = (q3 - q1) / q2
		}
		fmt.Fprintf(stdout, "%-36s %14.6g %14.6g %14.6g %10.4f  %s\n", n, q2, q1, q3, riqr, units[n])
	}
	return status
}

// quartiles mirrors Python's statistics.quantiles(data, n=4) with its
// default 'exclusive' method, over sorted data.
func quartiles(sorted []float64) (q1, q2, q3 float64) {
	ld := len(sorted)
	if ld == 0 {
		return 0, 0, 0
	}
	if ld == 1 {
		return sorted[0], sorted[0], sorted[0]
	}
	const n = 4
	m := ld + 1
	var q [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		q[i-1] = (sorted[j-1]*float64(n-delta) + sorted[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2]
}
