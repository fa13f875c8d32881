package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"time"

	"emcast/benchmark/check"
	"emcast/internal/ids"
	"emcast/internal/obs"
	"emcast/internal/peer"
	"emcast/internal/sim"
)

// setupReps is how many times a run builds its system; setup_s is the
// median, and the last build is the one measured.
const setupReps = 3

// simSeed fixes the simulated system: topology, overlay and protocol
// randomness. The run's --seed draws only the load offered to it.
const simSeed = 1

// payloadSize is the multicast payload of every workload, in bytes.
const payloadSize = 256

// simWorkload is a simulator cell under open-loop Poisson load in virtual
// time, sent from uniformly drawn nodes.
type simWorkload struct {
	name     string
	nodes    int
	strategy sim.StrategyKind
	rate     float64 // multicasts per virtual second
	// fixed is the virtual traffic time at which the per-layer counters
	// are read. Everything before it is a function of the seed alone, so
	// those counters repeat exactly however fast the machine runs.
	fixed time.Duration
	drain time.Duration
}

// simRanked2k sits just under sim.OracleExactCutoff, so its setup is
// dominated by the exact oracle, and its run is lazy-heavy.
var simRanked2k = simWorkload{
	name: "sim-ranked-2k", nodes: 2000, strategy: sim.StrategyRanked,
	rate: 4, fixed: 30 * time.Second, drain: 5 * time.Second,
}

// simTTL10k has no oracle and a memory-bound run over 10,000 nodes.
var simTTL10k = simWorkload{
	name: "sim-ttl-10k", nodes: 10000, strategy: sim.StrategyTTL,
	rate: 2, fixed: 10 * time.Second, drain: 5 * time.Second,
}

// simLoad feeds deliveries from sim.Config.OnDeliver into the checker.
type simLoad struct {
	r   *sim.Runner
	ck  *check.Checker
	idx map[ids.ID]int
	cur int // message being multicast, whose origin delivers before its id is known
}

func (l *simLoad) deliver(node peer.ID, id ids.ID, payload []byte) {
	if l.ck == nil {
		return
	}
	msg, ok := l.idx[id]
	if !ok {
		msg = l.cur // -1 outside a multicast: the checker counts it unknown
	}
	l.ck.Deliver(msg, int(node), l.r.Network().Now(), payload)
}

func (w simWorkload) config(reg *obs.Registry, l *simLoad) sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Nodes = w.nodes
	cfg.Seed = simSeed
	cfg.Strategy = w.strategy
	cfg.TTLRounds = 2
	cfg.PayloadSize = payloadSize
	cfg.Obs = reg
	cfg.OnDeliver = l.deliver
	return cfg
}

func (w simWorkload) run(seed int64, seconds int, traced bool) (*outcome, error) {
	o := &outcome{values: map[string]float64{}}
	sp := newSpans(traced)
	var reg *obs.Registry
	if traced {
		reg = obs.NewRegistry()
	}
	l := &simLoad{cur: -1}
	cfg := w.config(reg, l)

	// Set up setupReps times; keep the last system.
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if l.r != nil {
			l.r.ReleaseObs()
			l.r = nil
			runtime.GC()
			debug.FreeOSMemory()
		}
		start := time.Now()
		s := sp.begin("sim.New", -1)
		l.r = sim.New(cfg)
		sp.end(s)
		s = sp.begin("Runner.Warmup", -1)
		l.r.Warmup()
		sp.end(s)
		setups = append(setups, time.Since(start).Seconds())
	}
	r := l.r
	o.set("setup_s", median(setups))
	o.set("sim.new_s", median(sp.seconds("sim.New")))
	o.set("sim.warmup_s", median(sp.seconds("Runner.Warmup")))

	rng := rand.New(rand.NewSource(seed ^ 0x10ad))
	l.ck = check.New(w.nodes)
	l.idx = make(map[ids.ID]int)
	sched := &schedule{rng: rng, block: w.fixed, n: int(w.rate * w.fixed.Seconds())}
	net := r.Network()
	bytesBefore := net.BytesDelivered
	handlerBefore := sampledHandler(reg)
	runtime.GC() // start the measured phase without the setups' garbage

	var prof bytes.Buffer
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
	}
	load := sp.begin("load", -1)
	before := takeProbe()
	budget := time.Duration(seconds) * time.Second
	var traffic time.Duration // virtual traffic time elapsed
	fixedMsgs := -1           // messages sent before the fixed instant
	var mem memory            // the forced collection at the fixed instant

	advance := func(d time.Duration) {
		s := sp.begin("Runner.RunFor", load)
		r.RunFor(d)
		sp.end(s)
		traffic += d
	}
	for {
		next := sched.next()
		if fixedMsgs < 0 && next >= w.fixed {
			advance(w.fixed - traffic)
			fixedMsgs = l.ck.Messages()
			o.set("runtime.peak_rss_bytes", peakRSS())
			mem = collect()
			o.set("resident_bytes", mem.resident)
			o.set("runtime.retained_heap_bytes", mem.heap)
			o.set("wire_bytes_per_delivery", float64(net.BytesDelivered-bytesBefore)/float64(l.ck.Delivered()))
			if traced {
				w.readFixed(o, r)
			}
		}
		advance(next - traffic)
		if fixedMsgs >= 0 && time.Since(before.wall) >= budget {
			break
		}
		origin := rng.Intn(w.nodes)
		payload := make([]byte, payloadSize)
		rng.Read(payload)
		l.cur = l.ck.Add(check.Message{Origin: origin, Due: net.Now(), Payload: payload})
		s := sp.begin("Runner.MulticastFrom", load)
		id := r.MulticastFrom(origin, payload)
		sp.end(s)
		l.idx[id] = l.cur
		l.cur = -1
	}
	advance(w.drain)
	after := takeProbe()
	sp.end(load)
	if traced {
		pprof.StopCPUProfile()
		byLayer, err := foldProfile(prof.Bytes())
		if err != nil {
			return nil, err
		}
		if err := setLayers(o, byLayer); err != nil {
			return nil, err
		}
	}
	o.set("emunet.sampled_handler_ns", sampledHandler(reg)-handlerBefore)

	rep := l.ck.Verify(check.Bounds{Floor: func(origin int, row []time.Duration) {
		r.Matrix().LatencyRowInto(row, origin)
	}})
	verdict(o, rep)
	delivered := float64(rep.Pairs - rep.Missed)
	if delivered == 0 {
		return nil, fmt.Errorf("no deliveries measured")
	}
	// The forced collection is not part of the measured phase.
	d := after.since(before).since(mem.cost)
	phase := (after.wall.Sub(before.wall) - mem.wall).Seconds()
	cpuUs := d.cpu.Seconds() * 1e6 / delivered
	o.set("deliveries_per_s", delivered/phase)
	o.set("cpu_us_per_delivery", cpuUs)
	o.set("traced.deliveries_per_s", delivered/phase)
	o.set("traced.cpu_us_per_delivery", cpuUs)
	phaseRuntime(o, d, delivered)

	// Latencies are virtual and exact per seed over the fixed prefix.
	lats := latencyMs(rep, 0, fixedMsgs)
	o.set("delivery.latency_p50_ms", percentile(lats, 0.50))
	o.set("delivery.latency_p99_ms", percentile(lats, 0.99))
	o.set("delivery.latency_samples", float64(len(lats)))
	o.note("workload %s seed %d: %d multicasts over %.1f virtual s in %.1f wall s",
		w.name, seed, rep.Messages, traffic.Seconds(), phase)
	o.note("latency over the %d multicasts of the first %v: p50 %.3f ms, p99 %.3f ms, %d samples (%d beyond p99)",
		fixedMsgs, w.fixed, percentile(lats, 0.50), percentile(lats, 0.99), len(lats), len(lats)/100)
	runtime.KeepAlive(r)
	if err := sp.write(spanDir(), fmt.Sprintf("%s-seed%d.jsonl", w.name, seed)); err != nil {
		return nil, err
	}
	return o, nil
}

// schedule yields multicast times in blocks of virtual time, each holding
// exactly n sends at uniform times: a Poisson process conditioned on its
// count per block. Every seed then offers the same load per block, and the
// fixed instant, the end of the first block, always follows n multicasts.
type schedule struct {
	rng   *rand.Rand
	block time.Duration
	n     int
	start time.Duration // of the current block
	times []time.Duration
}

func (s *schedule) next() time.Duration {
	if len(s.times) == 0 {
		if s.times != nil {
			s.start += s.block
		}
		s.times = make([]time.Duration, s.n)
		for i := range s.times {
			s.times[i] = s.start + time.Duration(s.rng.Int63n(int64(s.block)))
		}
		sort.Slice(s.times, func(a, b int) bool { return s.times[a] < s.times[b] })
	}
	t := s.times[0]
	s.times = s.times[1:]
	return t
}

// readFixed records the per-layer counters at the fixed virtual instant.
func (w simWorkload) readFixed(o *outcome, r *sim.Runner) {
	net := r.Network()
	o.set("emunet.events", float64(r.Events()))
	o.set("emunet.timer_events", float64(net.TimerFires))
	st := net.SchedStats()
	o.set("emunet.sched_cascades", float64(st.Cascades))
	o.set("emunet.sched_sorts", float64(st.Sorts))
	m := r.Matrix()
	o.set("topology.matrix_misses", float64(m.Misses()))
	o.set("topology.matrix_recomputes", float64(m.Recomputes()))
	o.set("topology.resident_bytes", float64(m.ResidentBytes()))
	for _, fp := range r.Footprints() {
		o.set(fp.Subsystem+".footprint_bytes", float64(fp.Bytes))
	}
	c := r.Checkpoint().Counters
	o.set("gossip.eager_payloads", float64(c.EagerPayloads))
	o.set("gossip.duplicates", float64(c.Duplicates))
	if c.TotalDelivered > 0 {
		o.set("gossip.payloads_per_delivery", float64(c.TotalPayloads)/float64(c.TotalDelivered))
	}
	o.set("lazy.lazy_payloads", float64(c.LazyPayloads))
	o.set("lazy.control_frames", float64(c.ControlFrames))
	o.set("lazy.request_misses", float64(c.RequestMisses))
}

// sampledHandler sums emunet's stride-sampled handler nanoseconds, both
// event classes, from the registry a traced run attaches.
func sampledHandler(reg *obs.Registry) float64 {
	if reg == nil {
		return 0
	}
	var sum float64
	for _, class := range []string{"deliver", "timer"} {
		v, _ := reg.Value("sim_event_sampled_ns_total", obs.Label{Key: "class", Value: class})
		sum += v
	}
	return sum
}
