package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// probe is a snapshot of process-wide counters at a phase edge.
type probe struct {
	wall       time.Time
	cpu        time.Duration // user + system
	syscr      int64         // read-type syscalls (/proc/self/io)
	syscw      int64         // write-type syscalls
	gcCycles   float64
	gcCPU      float64
	allocObjs  float64
	allocBytes float64
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
}

func takeProbe() probe {
	var p probe
	p.wall = time.Now()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		p.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	p.syscr, p.syscw = procIO()
	metrics.Read(runtimeSamples)
	vals := make([]float64, len(runtimeSamples))
	for i, s := range runtimeSamples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			vals[i] = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			vals[i] = s.Value.Float64()
		}
	}
	p.gcCycles, p.gcCPU, p.allocObjs, p.allocBytes = vals[0], vals[1], vals[2], vals[3]
	return p
}

// since returns the counters accumulated from q to p; wall is p's.
func (p probe) since(q probe) probe {
	return probe{
		wall: p.wall, cpu: p.cpu - q.cpu, syscr: p.syscr - q.syscr, syscw: p.syscw - q.syscw,
		gcCycles: p.gcCycles - q.gcCycles, gcCPU: p.gcCPU - q.gcCPU,
		allocObjs: p.allocObjs - q.allocObjs, allocBytes: p.allocBytes - q.allocBytes,
	}
}

// plus adds the counters of two deltas; wall is q's.
func (p probe) plus(q probe) probe {
	return probe{
		wall: q.wall, cpu: p.cpu + q.cpu, syscr: p.syscr + q.syscr, syscw: p.syscw + q.syscw,
		gcCycles: p.gcCycles + q.gcCycles, gcCPU: p.gcCPU + q.gcCPU,
		allocObjs: p.allocObjs + q.allocObjs, allocBytes: p.allocBytes + q.allocBytes,
	}
}

// procIO reads the syscall counters of /proc/self/io; both are zero
// where the file is unavailable.
func procIO() (syscr, syscw int64) {
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0, 0
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		n, _ := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
		switch k {
		case "syscr":
			syscr = n
		case "syscw":
			syscw = n
		}
	}
	return syscr, syscw
}

// peakRSS is the process's maximum resident set size in bytes.
func peakRSS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 // Linux reports KiB
}

// memory is what a forced collection leaves behind: the resident set
// size and the live heap, in bytes, and the wall time and counters the
// collection itself took, which callers exclude from their measured phase.
type memory struct {
	resident, heap float64
	wall           time.Duration
	cost           probe
}

// collect forces a collection, returns the freed pages to the OS, and
// reads the resident set size from /proc/self/statm and the live heap
// from the runtime.
func collect() memory {
	start := takeProbe()
	debug.FreeOSMemory()
	var m memory
	if b, err := os.ReadFile("/proc/self/statm"); err == nil {
		if f := strings.Fields(string(b)); len(f) > 1 {
			pages, _ := strconv.ParseFloat(f[1], 64)
			m.resident = pages * float64(os.Getpagesize())
		}
	}
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	m.heap = float64(s[0].Value.Uint64())
	end := takeProbe()
	m.wall, m.cost = end.wall.Sub(start.wall), end.since(start)
	return m
}

// percentile returns the p-quantile (0..1) of sorted values by the
// nearest-rank rule.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p*float64(len(sorted)) + 0.5)
	if i < 1 {
		i = 1
	}
	if i > len(sorted) {
		i = len(sorted)
	}
	return sorted[i-1]
}

func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}

// span is one timed call into a layer, recorded by the traced run.
type span struct {
	Name   string `json:"name"`
	Parent int    `json:"parent"` // index of the enclosing span, -1 at top
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spans keeps a traced run's spans in memory until the run ends. A nil
// *spans records nothing, so untraced runs pay one nil check per call.
type spans struct {
	t0   time.Time
	list []span
}

func newSpans(traced bool) *spans {
	if !traced {
		return nil
	}
	return &spans{t0: time.Now()}
}

// begin opens a span and returns its index (-1 when not tracing).
func (s *spans) begin(name string, parent int) int {
	if s == nil {
		return -1
	}
	s.list = append(s.list, span{Name: name, Parent: parent, Start: int64(time.Since(s.t0)), End: -1})
	return len(s.list) - 1
}

func (s *spans) end(i int) {
	if s == nil || i < 0 {
		return
	}
	s.list[i].End = int64(time.Since(s.t0))
}

// seconds returns the durations of every closed span with this name.
func (s *spans) seconds(name string) []float64 {
	if s == nil {
		return nil
	}
	var out []float64
	for _, sp := range s.list {
		if sp.Name == name && sp.End >= 0 {
			out = append(out, float64(sp.End-sp.Start)/1e9)
		}
	}
	return out
}

// write stores the spans as JSON lines under dir.
func (s *spans) write(dir, file string) error {
	if s == nil {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, sp := range s.list {
		if err := enc.Encode(sp); err != nil {
			return err
		}
	}
	path := filepath.Join(dir, file)
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return nil
}

// spanDir is where traced runs write their spans: beside the binary,
// which run.sh builds into the benchmark's output directory.
func spanDir() string {
	exe, err := os.Executable()
	if err != nil {
		return "spans"
	}
	return filepath.Join(filepath.Dir(exe), "spans")
}
