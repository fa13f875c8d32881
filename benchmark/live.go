package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"

	"emcast"
	"emcast/benchmark/check"
	"emcast/internal/neem"
	"emcast/internal/trace"
)

// Live workload: a loopback TCP fleet of emcast.Peer under open-loop
// Poisson load from the benchmark's one load goroutine.
const (
	livePeers = 16
	// liveRate is the offered load in multicasts per wall second. At 100/s
	// the fleet's CPU per delivery swung by a fifth from one process to
	// the next on a 2-vCPU host; at 50/s it holds within a tenth.
	liveRate = 50
	// liveRounds is how many fresh fleets a run measures in turn, each
	// for its share of the run.
	liveRounds = 5
	// liveDrain is how long after the last send the run waits for
	// stragglers before it stops recording.
	liveDrain = 3 * time.Second
	// liveWarmupLimit bounds the setup wait for the warm-up multicasts.
	liveWarmupLimit = 30 * time.Second
)

type rawDelivery struct {
	node    int
	id      emcast.MessageID
	at      time.Duration // since the recorder's epoch
	payload []byte
}

// recorder collects deliveries from every peer's transport goroutines.
// It signals done once want deliveries have arrived.
type recorder struct {
	mu     sync.Mutex
	epoch  time.Time
	list   []rawDelivery
	on     bool
	want   int
	done   chan struct{}
	closed bool
}

func (r *recorder) deliver(d emcast.Delivery) {
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.on {
		return
	}
	r.list = append(r.list, rawDelivery{node: int(d.Node), id: d.ID, at: now.Sub(r.epoch), payload: d.Payload})
	if len(r.list) == r.want && !r.closed {
		r.closed = true
		close(r.done)
	}
}

// expect starts a fresh recording that signals after want deliveries.
func (r *recorder) expect(want int) <-chan struct{} {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.list, r.on, r.want, r.closed = nil, true, want, false
	r.done = make(chan struct{})
	return r.done
}

// stop ends the recording and returns what it holds.
func (r *recorder) stop() []rawDelivery {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.on = false
	return r.list
}

type fleet struct {
	peers []*emcast.Peer
	rec   *recorder
}

// startFleet brings up the peers and waits until a warm-up multicast from
// every peer has reached every peer.
func startFleet(seed int64, rec *recorder, tracer trace.Tracer, sp *spans, parent int) (*fleet, error) {
	f := &fleet{rec: rec}
	for i := 0; i < livePeers; i++ {
		boot := make([]emcast.NodeID, 0, livePeers-1)
		for j := 0; j < livePeers; j++ {
			if j != i {
				boot = append(boot, emcast.NodeID(j))
			}
		}
		s := sp.begin("NewPeer", parent)
		p, err := emcast.NewPeer(emcast.PeerConfig{
			Self:       emcast.NodeID(i),
			ListenAddr: "127.0.0.1:0",
			Peers:      map[emcast.NodeID]string{},
			Bootstrap:  boot,
			Strategy:   emcast.Eager,
			Seed:       seed ^ int64(i+1)*0x2545f4914f6cdd1d,
			Tracer:     tracer,
			OnDeliver:  rec.deliver,
		})
		sp.end(s)
		if err != nil {
			f.close(sp, parent)
			return nil, fmt.Errorf("peer %d: %w", i, err)
		}
		f.peers = append(f.peers, p)
	}
	for i, p := range f.peers {
		for j, q := range f.peers {
			if i != j {
				s := sp.begin("AddPeer", parent)
				p.AddPeer(emcast.NodeID(j), q.Addr())
				sp.end(s)
			}
		}
	}
	done := rec.expect(livePeers * livePeers)
	for _, p := range f.peers {
		p.Multicast([]byte("warm-up"))
	}
	select {
	case <-done:
		rec.stop()
		return f, nil
	case <-time.After(liveWarmupLimit):
		got := len(rec.stop())
		f.close(sp, parent)
		return nil, fmt.Errorf("warm-up reached %d of %d deliveries in %v", got, livePeers*livePeers, liveWarmupLimit)
	}
}

func (f *fleet) close(sp *spans, parent int) {
	for _, p := range f.peers {
		s := sp.begin("Close", parent)
		p.Close()
		sp.end(s)
	}
}

func (f *fleet) stats() neem.Stats {
	var st neem.Stats
	for _, p := range f.peers {
		st.Add(p.TransportStats())
	}
	return st
}

// liveRun accumulates what every round of a live run measured.
type liveRun struct {
	setups, cpus, lags []float64
	resident, heap     []float64 // after a forced collection, per round
	firsts             []int     // first message index of each round
	delivered          int
	wall               time.Duration
	frames, wire, lost uint64
	reconnects         uint64
	phase              probe // counters summed over the rounds' measured phases
	counters           trace.Counters
	prof               map[string]int64
}

func liveEager16(seed int64, seconds int, traced bool) (*outcome, error) {
	o := &outcome{values: map[string]float64{}}
	sp := newSpans(traced)
	rng := rand.New(rand.NewSource(seed ^ 0x10ad))
	per := liveRate * seconds / liveRounds
	span := time.Duration(seconds) * time.Second / liveRounds
	run := &liveRun{prof: map[string]int64{}}
	ck := check.New(livePeers)
	for round := 0; round < liveRounds; round++ {
		if err := liveRound(run, ck, rng, seed, per, span, sp, traced); err != nil {
			return nil, err
		}
	}
	// Every round's dues lie in [0, span) and its recording stops
	// liveDrain after its last due.
	rep := ck.Verify(check.Bounds{End: span + liveDrain})
	verdict(o, rep)
	delivered := float64(rep.Pairs - rep.Missed)
	if delivered == 0 {
		return nil, fmt.Errorf("no deliveries measured")
	}
	o.set("setup_s", median(run.setups))
	o.set("deliveries_per_s", float64(run.delivered)/run.wall.Seconds())
	o.set("cpu_us_per_delivery", median(run.cpus))
	// Latency percentiles are medians over rounds: each round is a fresh
	// fleet, so one unlucky fleet moves one round, not the figure.
	var p50s, p99s []float64
	for i, first := range run.firsts {
		end := rep.Messages
		if i+1 < len(run.firsts) {
			end = run.firsts[i+1]
		}
		lats := latencyMs(rep, first, end)
		p50s = append(p50s, percentile(lats, 0.50))
		p99s = append(p99s, percentile(lats, 0.99))
	}
	o.set("delivery.latency_p50_ms", median(p50s))
	o.set("delivery.latency_p99_ms", median(p99s))
	o.set("wire_bytes_per_delivery", float64(run.wire)/delivered)
	o.set("resident_bytes", median(run.resident))
	o.set("runtime.retained_heap_bytes", median(run.heap))
	o.set("runtime.peak_rss_bytes", peakRSS())
	o.set("traced.deliveries_per_s", float64(run.delivered)/run.wall.Seconds())
	o.set("traced.cpu_us_per_delivery", median(run.cpus))
	phaseRuntime(o, run.phase, delivered)
	all := latencyMs(rep, 0, rep.Messages)
	o.set("delivery.latency_samples", float64(len(all)))
	o.note("workload live-eager-16 seed %d: %d rounds of %d peers, %d multicasts each over %v, %d frames",
		seed, liveRounds, livePeers, per, span, run.frames)
	o.note("latency: medians over %d rounds of p50 %v ms and p99 %v ms; %d samples per round (%d beyond p99)",
		liveRounds, fmtList(p50s), fmtList(p99s), len(all)/liveRounds, len(all)/liveRounds/100)

	frames := float64(run.frames)
	o.set("neem.frames_sent", frames)
	o.set("neem.wire_bytes", float64(run.wire))
	o.set("neem.frames_lost", float64(run.lost))
	o.set("neem.reconnects", float64(run.reconnects))
	if frames > 0 {
		o.set("neem.write_syscalls_per_frame", float64(run.phase.syscw)/frames)
		o.set("neem.read_syscalls_per_frame", float64(run.phase.syscr)/frames)
	}
	o.set("emcast.multicast_call_us", median(sp.seconds("Peer.Multicast"))*1e6)
	sort.Float64s(run.lags)
	o.set("load.lag_ms_p99", percentile(run.lags, 0.99))
	if traced {
		c := run.counters
		o.set("gossip.eager_payloads", float64(c.EagerPayloads))
		o.set("gossip.duplicates", float64(c.Duplicates))
		if c.TotalDelivered > 0 {
			o.set("gossip.payloads_per_delivery", float64(c.TotalPayloads)/float64(c.TotalDelivered))
		}
		o.set("lazy.lazy_payloads", float64(c.LazyPayloads))
		o.set("lazy.control_frames", float64(c.ControlFrames))
		o.set("lazy.request_misses", float64(c.RequestMisses))
		if err := setLayers(o, run.prof); err != nil {
			return nil, err
		}
	}
	if err := sp.write(spanDir(), fmt.Sprintf("live-eager-16-seed%d.jsonl", seed)); err != nil {
		return nil, err
	}
	return o, nil
}

func fmtList(v []float64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// liveRound starts a fresh fleet, offers it per multicasts over span,
// drains, and closes it. The schedule is a Poisson process conditioned
// on its count: per uniform send times over the span, so every round
// offers the same number of multicasts.
func liveRound(run *liveRun, ck *check.Checker, rng *rand.Rand, seed int64, per int, span time.Duration, sp *spans, traced bool) error {
	first := ck.Messages()
	msgs := make([]check.Message, per)
	dues := make([]time.Duration, per)
	for i := range dues {
		dues[i] = time.Duration(rng.Int63n(int64(span)))
	}
	sort.Slice(dues, func(a, b int) bool { return dues[a] < dues[b] })
	for i, due := range dues {
		payload := make([]byte, payloadSize)
		rng.Read(payload)
		msgs[i] = check.Message{Origin: rng.Intn(livePeers), Due: due, Payload: payload}
		ck.Add(msgs[i])
	}

	var stream *trace.Streaming
	var tracer trace.Tracer
	if traced {
		stream = trace.NewStreaming()
		tracer = stream
	}
	rec := &recorder{epoch: time.Now()}
	start := time.Now()
	s := sp.begin("setup", -1)
	f, err := startFleet(seed, rec, tracer, sp, s)
	sp.end(s)
	if err != nil {
		return err
	}
	run.setups = append(run.setups, time.Since(start).Seconds())

	var cpBefore trace.Counters
	if stream != nil {
		cpBefore = stream.Checkpoint().Counters
	}
	stBefore := f.stats()
	var prof bytes.Buffer
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			f.close(sp, -1)
			return err
		}
	}
	done := rec.expect(per * livePeers)
	before := takeProbe()
	rec.mu.Lock()
	rec.epoch = before.wall
	rec.mu.Unlock()
	load := sp.begin("load", -1)
	index := make(map[emcast.MessageID]int, per)
	for i, m := range msgs {
		if d := time.Until(before.wall.Add(m.Due)); d > 0 {
			time.Sleep(d)
		}
		run.lags = append(run.lags, float64(time.Since(before.wall)-m.Due)/float64(time.Millisecond))
		c := sp.begin("Peer.Multicast", load)
		id := f.peers[m.Origin].Multicast(m.Payload)
		sp.end(c)
		index[id] = first + i
	}
	sp.end(load)
	drain := sp.begin("drain", -1)
	select {
	case <-done:
	case <-time.After(time.Until(before.wall.Add(dues[per-1] + liveDrain))):
	}
	after := takeProbe()
	raw := rec.stop()
	sp.end(drain)
	if traced {
		pprof.StopCPUProfile()
		byLayer, err := foldProfile(prof.Bytes())
		if err != nil {
			f.close(sp, -1)
			return err
		}
		for l, ns := range byLayer {
			run.prof[l] += ns
		}
	}
	stAfter := f.stats()
	mem := collect()
	run.resident = append(run.resident, mem.resident)
	run.heap = append(run.heap, mem.heap)
	if stream != nil {
		c := stream.Checkpoint().Counters
		run.counters.EagerPayloads += c.EagerPayloads - cpBefore.EagerPayloads
		run.counters.LazyPayloads += c.LazyPayloads - cpBefore.LazyPayloads
		run.counters.TotalPayloads += c.TotalPayloads - cpBefore.TotalPayloads
		run.counters.ControlFrames += c.ControlFrames - cpBefore.ControlFrames
		run.counters.Duplicates += c.Duplicates - cpBefore.Duplicates
		run.counters.RequestMisses += c.RequestMisses - cpBefore.RequestMisses
		run.counters.TotalDelivered += c.TotalDelivered - cpBefore.TotalDelivered
	}
	f.close(sp, -1)
	runtime.GC() // the next round starts without this fleet's garbage
	debug.FreeOSMemory()

	got := ck.Delivered()
	for _, d := range raw {
		i, ok := index[d.id]
		if !ok {
			i = -1
		}
		ck.Deliver(i, d.node, d.at, d.payload)
	}
	delivered := ck.Delivered() - got
	if delivered == 0 {
		return fmt.Errorf("round delivered nothing")
	}
	run.firsts = append(run.firsts, first)
	run.phase = run.phase.plus(after.since(before))
	run.delivered += delivered
	run.wall += after.wall.Sub(before.wall)
	run.cpus = append(run.cpus, (after.cpu-before.cpu).Seconds()*1e6/float64(delivered))
	run.frames += stAfter.FramesSent - stBefore.FramesSent
	run.wire += stAfter.BytesSent - stBefore.BytesSent
	run.lost += stAfter.FramesLost - stBefore.FramesLost
	run.reconnects += stAfter.Reconnects - stBefore.Reconnects
	return nil
}
