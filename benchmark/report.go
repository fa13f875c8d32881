package main

import (
	"fmt"
	"sort"
	"time"

	"emcast/benchmark/check"
)

// latencyMs returns the sorted latencies, in milliseconds, of messages
// [from, to) of a check report.
func latencyMs(rep check.Report, from, to int) []float64 {
	var out []float64
	for _, lats := range rep.Latencies[from:to] {
		for _, d := range lats {
			out = append(out, float64(d)/float64(time.Millisecond))
		}
	}
	sort.Float64s(out)
	return out
}

// verdict fills the result's operation counts from the check report: an
// operation is one multicast, and it fails when it reaches fewer than
// check.MinCoverage of its receivers. Pairs missed short of that are the
// method's own and are reported as check.missed_pairs.
func verdict(o *outcome, rep check.Report) {
	o.attempted = rep.Messages
	o.failed = rep.FailedMessages
	o.correct = rep.OK() && rep.Messages > 0
	o.set("check.missed_pairs", float64(rep.Missed))
	o.note("checked %d multicasts, %d failed (below %.0f%% of receivers); %d pairs, %d missed (%.4f%% delivered, at least %.1f%% required)",
		rep.Messages, rep.FailedMessages, 100*check.MinCoverage, rep.Pairs, rep.Missed,
		100*float64(rep.Pairs-rep.Missed)/float64(max(rep.Pairs, 1)), 100*check.MinDelivered)
	o.note("violations: %d duplicate, %d corrupt, %d early, %d late, %d unknown",
		rep.Duplicate, rep.Corrupt, rep.Early, rep.Late, rep.Unknown)
}

// phaseRuntime fills the Go runtime's per-layer figures from the
// counters a measured phase accumulated.
func phaseRuntime(o *outcome, d probe, delivered float64) {
	o.set("runtime.gc_cycles", d.gcCycles)
	o.set("runtime.gc_cpu_s", d.gcCPU)
	o.set("runtime.allocs_per_delivery", d.allocObjs/delivered)
	o.set("runtime.alloc_bytes_per_delivery", d.allocBytes/delivered)
}

// setLayers reports a traced run's CPU nanoseconds per layer.
func setLayers(o *outcome, byLayer map[string]int64) error {
	var total, named int64
	for layer, ns := range byLayer {
		total += ns
		if layer != "other" {
			named += ns
		}
	}
	if total == 0 {
		return fmt.Errorf("CPU profile holds no samples")
	}
	for _, layer := range cpuLayers {
		o.set(layer+".cpu_s", float64(byLayer[layer])/1e9)
	}
	o.set("profile.named_share", float64(named)/float64(total))
	o.note("profile: %.2f cpu-s sampled, %.1f%% in named layers", float64(total)/1e9, 100*float64(named)/float64(total))
	return nil
}
