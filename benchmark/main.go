// Command benchmark measures emcast end to end and layer by layer on three
// workloads: two simulator cells (sim-ranked-2k, sim-ttl-10k) and a live
// loopback TCP fleet (live-eager-16). Every run generates its load from
// --seed, checks every delivery with package check, and prints one JSON
// result as its last line of output. See README.md.
//
//	benchmark --workload sim-ranked-2k --seed 1 --seconds 10 --trace 0
//	benchmark --workload live-eager-16 --seed 1 --seconds 10 --runs 10
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
)

// metricSpec names one reported metric and which direction is better.
// The bounds live in BENCHMARK.json only.
type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd is what a user of the system sees; untraced runs print these.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"deliveries_per_s", "1/s", "higher"},
	{"cpu_us_per_delivery", "us", "lower"},
	{"resident_bytes", "bytes", "lower"},
	{"wire_bytes_per_delivery", "bytes", "lower"},
}

// perLayer is what a traced run prints. Every workload prints every
// name; a layer the workload never runs reads 0.
var perLayer = func() []metricSpec {
	m := []metricSpec{
		{"sim.new_s", "s", "lower"},
		{"sim.warmup_s", "s", "lower"},
		{"emunet.events", "count", "lower"},
		{"emunet.timer_events", "count", "lower"},
		{"emunet.sched_cascades", "count", "lower"},
		{"emunet.sched_sorts", "count", "lower"},
		{"emunet.sampled_handler_ns", "ns", "lower"},
		{"topology.matrix_misses", "count", "lower"},
		{"topology.matrix_recomputes", "count", "lower"},
		{"topology.resident_bytes", "bytes", "lower"},
	}
	for _, l := range []string{"core", "emunet", "gossip", "lazy", "membership", "topology", "trace"} {
		m = append(m, metricSpec{l + ".footprint_bytes", "bytes", "lower"})
	}
	m = append(m,
		metricSpec{"gossip.eager_payloads", "count", "lower"},
		metricSpec{"gossip.duplicates", "count", "lower"},
		metricSpec{"gossip.payloads_per_delivery", "ratio", "lower"},
		metricSpec{"lazy.lazy_payloads", "count", "lower"},
		metricSpec{"lazy.control_frames", "count", "lower"},
		metricSpec{"lazy.request_misses", "count", "lower"},
		metricSpec{"neem.frames_sent", "count", "lower"},
		metricSpec{"neem.wire_bytes", "bytes", "lower"},
		metricSpec{"neem.frames_lost", "count", "lower"},
		metricSpec{"neem.reconnects", "count", "lower"},
		metricSpec{"neem.write_syscalls_per_frame", "ratio", "lower"},
		metricSpec{"neem.read_syscalls_per_frame", "ratio", "lower"},
		metricSpec{"emcast.multicast_call_us", "us", "lower"},
		metricSpec{"runtime.gc_cycles", "count", "lower"},
		metricSpec{"runtime.gc_cpu_s", "s", "lower"},
		metricSpec{"runtime.allocs_per_delivery", "count", "lower"},
		metricSpec{"runtime.alloc_bytes_per_delivery", "bytes", "lower"},
		metricSpec{"runtime.retained_heap_bytes", "bytes", "lower"},
		metricSpec{"runtime.peak_rss_bytes", "bytes", "lower"},
		metricSpec{"load.lag_ms_p99", "ms", "lower"},
		metricSpec{"delivery.latency_p50_ms", "ms", "lower"},
		metricSpec{"delivery.latency_p99_ms", "ms", "lower"},
		metricSpec{"delivery.latency_samples", "count", "higher"},
		metricSpec{"check.missed_pairs", "count", "lower"},
		metricSpec{"profile.named_share", "ratio", "higher"},
		metricSpec{"traced.deliveries_per_s", "1/s", "higher"},
		metricSpec{"traced.cpu_us_per_delivery", "us", "lower"},
	)
	for _, l := range cpuLayers {
		m = append(m, metricSpec{l + ".cpu_s", "s", "lower"})
	}
	return m
}()

// outcome is one run's verdict and figures, keyed by metric name.
type outcome struct {
	correct   bool
	attempted int
	failed    int
	values    map[string]float64
	notes     []string // human-readable lines printed before the result
}

func (o *outcome) set(name string, v float64) { o.values[name] = v }

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(seed int64, seconds int, traced bool) (*outcome, error){
	"sim-ranked-2k": simRanked2k.run,
	"sim-ttl-10k":   simTTL10k.run,
	"live-eager-16": liveEager16,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload name: sim-ranked-2k, sim-ttl-10k or live-eager-16")
	seed := fs.Int64("seed", 1, "seed the load (send schedule, senders, payloads) is drawn from")
	seconds := fs.Int("seconds", 10, "wall seconds of load to measure")
	trace := fs.Int("trace", 0, "1: traced run printing per-layer metrics; 0: end-to-end metrics")
	runs := fs.Int("runs", 0, "steadiness mode: run this many fresh processes on seeds seed, seed+1, ...\nand print each metric's median, quartiles and relative IQR")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "benchmark: unexpected arguments %v\n", fs.Args())
		return 2
	}
	wl, ok := workloads[*workload]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(stderr, "benchmark: unknown workload %q (have %v)\n", *workload, names)
		return 2
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 || *runs < 0 {
		fmt.Fprintln(stderr, "benchmark: need --seconds >= 1, --trace 0|1, --runs >= 0")
		return 2
	}
	if *runs > 0 {
		return steadiness(*workload, *seed, *seconds, *trace == 1, *runs, stdout, stderr)
	}
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}

	o, err := wl(*seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", *workload, err)
		return 1
	}
	specs := endToEnd
	if *trace == 1 {
		specs = perLayer
	}
	res := result{Correct: o.correct, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricValue{}}
	for _, n := range o.notes {
		fmt.Fprintln(stdout, n)
	}
	for _, s := range specs {
		v := o.values[s.Name]
		res.Metrics[s.Name] = metricValue{Value: v, Unit: s.Unit}
		fmt.Fprintf(stdout, "%-36s %16.6g %s\n", s.Name, v, s.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}
