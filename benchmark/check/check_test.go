package check

import (
	"testing"
	"time"
)

const ms = time.Millisecond

// fleet builds a checker over n nodes with one message from node 0, due
// at 100 ms, and delivers it cleanly to every node but the ones skipped.
func fleet(t *testing.T, n int, skip ...int) (*Checker, []byte) {
	t.Helper()
	c := New(n)
	payload := []byte("generated payload")
	idx := c.Add(Message{Origin: 0, Due: 100 * ms, Payload: payload})
	skipped := map[int]bool{}
	for _, s := range skip {
		skipped[s] = true
	}
	for node := 0; node < n; node++ {
		if !skipped[node] {
			c.Deliver(idx, node, 100*ms+time.Duration(node)*ms, append([]byte(nil), payload...))
		}
	}
	return c, payload
}

func TestCleanRunPasses(t *testing.T) {
	c, _ := fleet(t, 5)
	r := c.Verify(Bounds{End: time.Second})
	if !r.OK() || r.Missed != 0 || r.FailedMessages != 0 {
		t.Fatalf("clean run rejected: %+v", r)
	}
	if r.Messages != 1 || r.Pairs != 4 || len(r.Latencies) != 1 || len(r.Latencies[0]) != 4 || c.Delivered() != 4 {
		t.Fatalf("counts = %+v, want 1 message, 4 pairs, 4 latencies", r)
	}
	if r.Latencies[0][0] != ms {
		t.Fatalf("latency of node 1 = %v, want 1ms (from due time)", r.Latencies[0])
	}
}

func TestDuplicateRejected(t *testing.T) {
	c, payload := fleet(t, 5)
	c.Deliver(0, 3, 200*ms, payload)
	if r := c.Verify(Bounds{}); r.Duplicate != 1 || r.OK() {
		t.Fatalf("duplicate not rejected: %+v", r)
	}
}

func TestCorruptPayloadRejected(t *testing.T) {
	c, _ := fleet(t, 5, 2)
	c.Deliver(0, 2, 150*ms, []byte("generated pAyload"))
	r := c.Verify(Bounds{})
	if r.Corrupt != 1 || r.OK() {
		t.Fatalf("corrupt payload not rejected: %+v", r)
	}
	if r.Missed != 1 {
		t.Fatalf("corrupt delivery must not count as delivered: %+v", r)
	}
}

func TestCallerReusedBufferIsCopiedOut(t *testing.T) {
	c, payload := fleet(t, 3, 2)
	buf := append([]byte(nil), payload...)
	c.Deliver(0, 2, 150*ms, buf)
	buf[0] ^= 0xff // the caller recycles its frame buffer
	if r := c.Verify(Bounds{}); !r.OK() {
		t.Fatalf("payload must be compared on delivery: %+v", r)
	}
}

func TestTooEarlyRejected(t *testing.T) {
	c, _ := fleet(t, 5)
	floor := func(origin int, row []time.Duration) {
		for i := range row {
			row[i] = 2 * ms // node 1 arrived after 1 ms: faster than light
		}
	}
	r := c.Verify(Bounds{Floor: floor})
	if r.Early != 1 || r.OK() {
		t.Fatalf("too-early delivery not rejected: %+v", r)
	}
}

func TestBeforeDueRejected(t *testing.T) {
	c, payload := fleet(t, 5, 4)
	c.Deliver(0, 4, 99*ms, payload)
	if r := c.Verify(Bounds{}); r.Early != 1 || r.OK() {
		t.Fatalf("delivery before the message was due not rejected: %+v", r)
	}
}

func TestAfterEndRejected(t *testing.T) {
	c, _ := fleet(t, 5)
	if r := c.Verify(Bounds{End: 102 * ms}); r.Late != 2 || r.OK() {
		t.Fatalf("deliveries after the drain not rejected: %+v", r)
	}
}

func TestUnknownRejected(t *testing.T) {
	c, payload := fleet(t, 3)
	c.Deliver(1, 1, 0, payload)
	c.Deliver(0, 3, 0, payload)
	if r := c.Verify(Bounds{}); r.Unknown != 2 || r.OK() {
		t.Fatalf("unknown message or node not rejected: %+v", r)
	}
}

func TestMissingPairsCounted(t *testing.T) {
	// 1001 nodes: 1000 receivers. Ten misses keep the message at 99%
	// of its receivers; eleven fail it.
	skip := func(n int) []int {
		var s []int
		for i := 1; i <= n; i++ {
			s = append(s, i)
		}
		return s
	}
	c, _ := fleet(t, 1001, skip(10)...)
	if r := c.Verify(Bounds{}); r.Missed != 10 || r.FailedMessages != 0 {
		t.Fatalf("ten misses in 1000: %+v", r.FailedMessages)
	}
	c, _ = fleet(t, 1001, skip(11)...)
	if r := c.Verify(Bounds{}); r.Missed != 11 || r.FailedMessages != 1 {
		t.Fatalf("eleven misses in 1000 must fail the message: %+v", r.FailedMessages)
	}
	c, _ = fleet(t, 16, 5)
	if r := c.Verify(Bounds{}); r.Missed != 1 || r.FailedMessages != 1 {
		t.Fatalf("one miss in 15 must fail the message: %+v", r.FailedMessages)
	}
}

func TestRunBelowDeliveredShareIncorrect(t *testing.T) {
	// One miss in 1000 pairs is the limit.
	c, _ := fleet(t, 1001, 7)
	if r := c.Verify(Bounds{}); !r.OK() {
		t.Fatalf("one miss in 1000 pairs rejected: %+v", r.Violations)
	}
	c, _ = fleet(t, 1001, 7, 8)
	if r := c.Verify(Bounds{}); r.OK() {
		t.Fatal("two misses in 1000 pairs accepted")
	}
}

func TestOriginNotAPair(t *testing.T) {
	c, _ := fleet(t, 4, 0)
	if r := c.Verify(Bounds{}); r.Pairs != 3 || r.Missed != 0 {
		t.Fatalf("origin counted as a receiver: %+v", r)
	}
}
