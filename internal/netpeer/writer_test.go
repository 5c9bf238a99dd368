package netpeer

import (
	"bytes"
	"errors"
	"net"
	"runtime"
	"testing"
	"time"

	"coolstream/internal/protocol"
)

// pipeWriter attaches a batched writer to one end of an in-memory pipe
// and returns the conn and a frame reader on the far end. Pipe writes
// complete only when the far end reads, so every Write the writer
// issues is observable as frames arriving at the reader.
func pipeWriter(t *testing.T, cfg Config) (*Node, *conn, *protocol.FrameReader) {
	t.Helper()
	n := mustNode(t, cfg)
	a, b := net.Pipe()
	cn := &conn{peer: 2, wt: 10 * time.Second, c: a, n: n}
	n.mu.Lock()
	cn.startWriter()
	n.mu.Unlock()
	t.Cleanup(func() {
		cn.closeQueue(errConnClosed)
		a.Close()
		b.Close()
	})
	if err := b.SetReadDeadline(time.Now().Add(30 * time.Second)); err != nil {
		t.Fatal(err)
	}
	return n, cn, protocol.NewFrameReader(b)
}

func enqueuePing(t *testing.T, cn *conn) {
	t.Helper()
	if err := cn.enqueueMsg(protocol.Message{Type: protocol.TypePing, From: 1, To: 2}); err != nil {
		t.Fatal(err)
	}
}

func readFrames(t *testing.T, fr *protocol.FrameReader, k int) {
	t.Helper()
	for i := 0; i < k; i++ {
		m, err := fr.Read()
		if err != nil {
			t.Fatalf("frame %d/%d: %v", i+1, k, err)
		}
		if m.Type != protocol.TypePing {
			t.Fatalf("frame %d/%d: type %v, want Ping", i+1, k, m.Type)
		}
	}
}

// TestFlushSpacing pins the writer's spacing rule with a FlushDelay far
// above any scheduling noise: a frame on an idle conn goes out at once,
// and frames arriving right after a write wait out the spacing and
// leave together in one write.
func TestFlushSpacing(t *testing.T) {
	cfg := testConfig(1, 0)
	cfg.FlushDelay = time.Second
	n, cn, fr := pipeWriter(t, cfg)

	// (a) One frame on an idle conn reaches the far end well inside the
	// spacing; a writer that always lingered would need the full second.
	t0 := time.Now()
	enqueuePing(t, cn)
	readFrames(t, fr, 1)
	if d := time.Since(t0); d > 250*time.Millisecond {
		t.Fatalf("frame on an idle conn took %v, want < 250ms", d)
	}
	waitFor(t, 5*time.Second, func() bool { return n.Stats().WriteCalls == 1 },
		"first write never accounted")
	if st := n.Stats(); st.FlushLingers != 0 {
		t.Fatalf("idle write lingered: FlushLingers = %d", st.FlushLingers)
	}

	// (b) Three frames enqueued just after that write are held for the
	// rest of the spacing, then flushed in a single write.
	t1 := time.Now()
	for i := 0; i < 3; i++ {
		enqueuePing(t, cn)
	}
	readFrames(t, fr, 3)
	if d := time.Since(t1); d < 500*time.Millisecond {
		t.Fatalf("frames right after a write arrived after %v, want the ~1s spacing", d)
	}
	waitFor(t, 5*time.Second, func() bool { return n.Stats().WriteCalls >= 2 },
		"second write never accounted")
	st := n.Stats()
	if st.WriteCalls != 2 {
		t.Fatalf("WriteCalls = %d, want 2 (one idle write, one coalesced)", st.WriteCalls)
	}
	if got := st.FramesSent - 1; got != 3 {
		t.Fatalf("FramesSent after the first write = %d, want 3", got)
	}
	if st.FlushLingers != 1 {
		t.Fatalf("FlushLingers = %d, want 1", st.FlushLingers)
	}
	if st.FlushLingerNanos < uint64(500*time.Millisecond) {
		t.Fatalf("FlushLingerNanos = %v, want about the 1s spacing", time.Duration(st.FlushLingerNanos))
	}
}

// TestFlushNegativeDelayImmediate checks that a negative FlushDelay
// disables spacing: a frame right after a write goes out at once.
func TestFlushNegativeDelayImmediate(t *testing.T) {
	cfg := testConfig(1, 0)
	cfg.FlushDelay = -1
	n, cn, fr := pipeWriter(t, cfg)
	for i := 0; i < 2; i++ {
		t0 := time.Now()
		enqueuePing(t, cn)
		readFrames(t, fr, 1)
		if d := time.Since(t0); d > 250*time.Millisecond {
			t.Fatalf("frame %d took %v with spacing disabled", i+1, d)
		}
	}
	waitFor(t, 5*time.Second, func() bool { return n.Stats().WriteCalls == 2 },
		"writes never accounted")
	if st := n.Stats(); st.FlushLingers != 0 || st.FlushLingerNanos != 0 {
		t.Fatalf("spacing disabled but writer lingered: %d waits, %v",
			st.FlushLingers, time.Duration(st.FlushLingerNanos))
	}
}

// writerGoroutines counts live goroutines running a conn writer.
func writerGoroutines() int {
	buf := make([]byte, 1<<20)
	for {
		k := runtime.Stack(buf, true)
		if k < len(buf) {
			return bytes.Count(buf[:k], []byte("netpeer.(*conn).writerLoop("))
		}
		buf = make([]byte, 2*len(buf))
	}
}

// settledWriters returns the writer count once two reads 50ms apart
// agree, so a writer of an earlier test still unwinding after its
// node's Close is not counted as a baseline writer.
func settledWriters() int {
	prev := writerGoroutines()
	for {
		time.Sleep(50 * time.Millisecond)
		cur := writerGoroutines()
		if cur == prev {
			return cur
		}
		prev = cur
	}
}

// goroutinesSettle waits for the process goroutine count to fall back
// to at most base.
func goroutinesSettle(t *testing.T, base int, what string) {
	t.Helper()
	waitFor(t, 10*time.Second, func() bool { return runtime.NumGoroutine() <= base },
		what+": goroutines never returned to baseline")
}

// TestWriterResourceBounds asserts the per-partner resource bounds of
// the batched plane over real TCP partnerships: each partner conn runs
// exactly one writer goroutine, traffic does not add more, and Close
// returns the process to its goroutine baseline.
func TestWriterResourceBounds(t *testing.T) {
	writers0 := settledWriters()
	base := runtime.NumGoroutine()

	hub := mustNode(t, testConfig(1, 0))
	addr := mustListen(t, hub)
	if err := hub.StartSource(); err != nil {
		t.Fatal(err)
	}
	const leaves = 3
	nodes := []*Node{hub}
	for i := 0; i < leaves; i++ {
		leaf := mustNode(t, testConfig(int32(10+i), 0))
		mustListen(t, leaf)
		if _, err := leaf.Connect(addr); err != nil {
			t.Fatal(err)
		}
		start := hub.Latest(0) - 2
		if start < 0 {
			start = 0
		}
		if err := leaf.InitBuffers(start); err != nil {
			t.Fatal(err)
		}
		if err := leaf.Subscribe(1, 0, start); err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, leaf)
	}
	waitFor(t, 10*time.Second, func() bool { return len(hub.Partners()) == leaves },
		"hub never saw every leaf")
	// Each partnership has a conn at both ends, each with one writer.
	want := writers0 + 2*leaves
	waitFor(t, 10*time.Second, func() bool { return writerGoroutines() == want },
		"writer goroutines never matched one per partner conn")
	// Several BM periods of traffic and pushes later the count holds.
	waitFor(t, 10*time.Second, func() bool {
		for _, leaf := range nodes[1:] {
			if leaf.Stats().BlocksReceived == 0 {
				return false
			}
		}
		return true
	}, "pushes never reached the leaves")
	time.Sleep(300 * time.Millisecond)
	if got := writerGoroutines(); got != want {
		t.Fatalf("writer goroutines under traffic = %d, want %d", got, want)
	}

	for _, n := range nodes {
		n.Close()
	}
	waitFor(t, 10*time.Second, func() bool { return writerGoroutines() == writers0 },
		"writer goroutines outlived Close")
	goroutinesSettle(t, base, "after Close")
}

// TestWriterQueueBound fills a partner's queue against a conn that
// never drains: queued bytes never exceed QueueBytes, the overflowing
// enqueue tears the conn down and counts a slow-partner teardown, and
// the writer goroutine exits.
func TestWriterQueueBound(t *testing.T) {
	writers0 := settledWriters()
	base := runtime.NumGoroutine()

	cfg := testConfig(1, 0)
	cfg.QueueBytes = 8 * 1024
	n := mustNode(t, cfg)
	bc := newBlockingConn()
	cn := &conn{peer: 2, wt: time.Second, c: bc, n: n}
	n.mu.Lock()
	cn.startWriter()
	n.mu.Unlock()
	// The conn is not in n.conns, so Close would not retire its writer:
	// do it here on every path, ahead of mustNode's Close.
	t.Cleanup(func() {
		cn.closeQueue(errConnClosed)
		bc.Close()
	})
	waitFor(t, 10*time.Second, func() bool { return writerGoroutines() == writers0+1 },
		"conn writer never started")

	payload := make([]byte, 700)
	var overflow error
	for i := 0; i < 1000 && overflow == nil; i++ {
		overflow = cn.enqueueMsg(protocol.Message{
			Type: protocol.TypeBlockPush, From: 1, To: 2,
			SubStream: 0, StartSeq: int64(i), Payload: payload,
		})
		cn.qmu.Lock()
		queued := cn.qBytes
		cn.qmu.Unlock()
		if queued > cfg.QueueBytes {
			t.Fatalf("queued %d bytes, bound %d", queued, cfg.QueueBytes)
		}
	}
	if !errors.Is(overflow, errSlowPartner) {
		t.Fatalf("overflow error = %v, want errSlowPartner", overflow)
	}
	if got := n.Recovery().SlowPartnerTeardowns; got != 1 {
		t.Fatalf("SlowPartnerTeardowns = %d, want 1", got)
	}
	select {
	case <-bc.dead:
	default:
		t.Fatal("overflow did not close the conn")
	}
	waitFor(t, 10*time.Second, func() bool { return writerGoroutines() == writers0 },
		"writer goroutine outlived the teardown")
	n.Close()
	goroutinesSettle(t, base, "after teardown and Close")
}
