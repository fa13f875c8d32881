// Package check verifies a multicast run's deliveries against what the
// load generator sent. It knows nothing of the protocol: it is fed the
// messages as generated and every delivery as the application saw it,
// and reports duplicates, corrupted payloads, deliveries earlier than a
// physical floor or later than the run's end, and pairs never delivered.
package check

import (
	"bytes"
	"time"
)

// Gossip without anti-entropy can miss a receiver whose in-neighbours
// all pick other targets, so a multicast is not held to every receiver.
const (
	// MinCoverage is the share of a message's receivers (every node but
	// its origin) that must deliver it for the multicast to succeed.
	MinCoverage = 0.99
	// MinDelivered is the share of all (message, receiver) pairs of a
	// run that must be delivered for the run to be correct.
	MinDelivered = 0.999
)

// Message is one multicast as the load generator issued it.
type Message struct {
	Origin  int
	Due     time.Duration // when the multicast was due to be sent
	Payload []byte
}

// notDelivered marks a (message, receiver) pair with no delivery yet.
const notDelivered = time.Duration(-1 << 63)

// Checker accumulates deliveries for a fixed population of nodes. It is
// not safe for concurrent use; live runs feed it after the drain.
type Checker struct {
	nodes int
	msgs  []Message
	at    [][]time.Duration // per message, per node: delivery latency
	v     Violations
	got   int // accepted deliveries to receivers other than the origin
}

// Violations counts deliveries that break a rule. Any non-zero field
// makes a run incorrect.
type Violations struct {
	Duplicate int // a pair delivered more than once
	Corrupt   int // payload differs from the generated bytes
	Early     int // latency below the physical floor, or negative
	Late      int // delivered after the run's end
	Unknown   int // message index or node out of range
}

// Total is the number of violating deliveries.
func (v Violations) Total() int {
	return v.Duplicate + v.Corrupt + v.Early + v.Late + v.Unknown
}

// New returns a checker for a population of nodes.
func New(nodes int) *Checker {
	return &Checker{nodes: nodes}
}

// Add records a generated message and returns its index.
func (c *Checker) Add(m Message) int {
	row := make([]time.Duration, c.nodes)
	for i := range row {
		row[i] = notDelivered
	}
	c.msgs = append(c.msgs, m)
	c.at = append(c.at, row)
	return len(c.msgs) - 1
}

// Messages returns the number of messages added.
func (c *Checker) Messages() int { return len(c.msgs) }

// Deliver records that node delivered message msg at time at with the
// given payload. The payload is compared at once, so callers may pass a
// buffer they reuse afterwards.
func (c *Checker) Deliver(msg, node int, at time.Duration, payload []byte) {
	if msg < 0 || msg >= len(c.msgs) || node < 0 || node >= c.nodes {
		c.v.Unknown++
		return
	}
	m := &c.msgs[msg]
	if !bytes.Equal(payload, m.Payload) {
		c.v.Corrupt++
		return
	}
	if c.at[msg][node] != notDelivered {
		c.v.Duplicate++
		return
	}
	lat := at - m.Due
	if lat < 0 {
		c.v.Early++
		return
	}
	c.at[msg][node] = lat
	if node != m.Origin {
		c.got++
	}
}

// Delivered returns the deliveries accepted so far, origins excluded.
func (c *Checker) Delivered() int { return c.got }

// Bounds are the physical limits a delivery's latency must respect.
type Bounds struct {
	// Floor, when set, fills row with the least latency from origin to
	// every node: no overlay route can beat it.
	Floor func(origin int, row []time.Duration)
	// End, when positive, is the time by which every delivery must have
	// happened (the end of the drain).
	End time.Duration
}

// Report is the verdict over every message added.
type Report struct {
	Violations
	Messages       int // multicasts attempted
	FailedMessages int // multicasts below MinCoverage
	Pairs          int // (message, receiver) pairs, origins excluded
	Missed         int // pairs never delivered
	// Latencies holds, per message, the latency of each delivered pair,
	// origins excluded.
	Latencies [][]time.Duration
}

// OK reports whether no delivery broke a rule and the run delivered at
// least MinDelivered of its pairs.
func (r Report) OK() bool {
	return r.Violations.Total() == 0 && float64(r.Pairs-r.Missed) >= MinDelivered*float64(r.Pairs)
}

// Verify applies the bounds to every recorded delivery and counts the
// missed pairs. It may be called once, after the last delivery.
func (c *Checker) Verify(b Bounds) Report {
	r := Report{Violations: c.v, Messages: len(c.msgs), Latencies: make([][]time.Duration, len(c.msgs))}
	var floor []time.Duration
	if b.Floor != nil {
		floor = make([]time.Duration, c.nodes)
	}
	receivers := c.nodes - 1
	for i, m := range c.msgs {
		if floor != nil {
			b.Floor(m.Origin, floor)
		}
		got := 0
		for node, lat := range c.at[i] {
			if node == m.Origin {
				continue
			}
			r.Pairs++
			if lat == notDelivered {
				r.Missed++
				continue
			}
			if floor != nil && lat < floor[node] {
				r.Early++
				continue
			}
			if b.End > 0 && m.Due+lat > b.End {
				r.Late++
				continue
			}
			got++
			r.Latencies[i] = append(r.Latencies[i], lat)
		}
		if receivers > 0 && float64(got) < MinCoverage*float64(receivers) {
			r.FailedMessages++
		}
	}
	return r
}
