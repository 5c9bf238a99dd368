package netpeer

import (
	"sync/atomic"

	"coolstream/internal/protocol"
)

// netStats are the data-plane hot counters, updated with atomics so
// neither the writer goroutines nor the pushers take n.mu to account
// their traffic.
type netStats struct {
	framesSent     atomic.Uint64
	writeCalls     atomic.Uint64
	bytesSent      atomic.Uint64
	bmFrames       atomic.Uint64
	bmBytes        atomic.Uint64
	blockFrames    atomic.Uint64
	blockBytes     atomic.Uint64
	fanEncodes     atomic.Uint64
	fanShared      atomic.Uint64
	blocksReceived atomic.Uint64
	// flushLingers/flushLingerNanos account the writer's spacing waits
	// (see writerLoop).
	flushLingers     atomic.Uint64
	flushLingerNanos atomic.Uint64
}

// countFrame accounts one frame handed to the data plane (enqueued on a
// writer or written directly), classified by message type.
func (s *netStats) countFrame(t protocol.MsgType, size int) {
	s.framesSent.Add(1)
	switch t {
	case protocol.TypeBMExchange, protocol.TypeBMDelta, protocol.TypeBMAck:
		s.bmFrames.Add(1)
		s.bmBytes.Add(uint64(size))
	case protocol.TypeBlockPush:
		s.blockFrames.Add(1)
		s.blockBytes.Add(uint64(size))
	}
}

// NetStats is a snapshot of a node's data-plane counters. The
// saturation harness sums these across nodes to report bytes and write
// syscalls per delivered block, and BM signalling bytes per peer.
type NetStats struct {
	// FramesSent counts frames handed to the plane (a torn-down queue
	// may drop some before they reach the wire).
	FramesSent uint64
	// WriteCalls counts Write syscalls issued; the batched writer's
	// whole purpose is FramesSent >> WriteCalls under load.
	WriteCalls uint64
	// BytesSent counts bytes actually written.
	BytesSent uint64
	// BMFrames/BMBytes cover buffer-map signalling: BMExchange,
	// BMDelta and BMAck frames.
	BMFrames uint64
	BMBytes  uint64
	// BlockFrames/BlockBytes cover BlockPush frames.
	BlockFrames uint64
	BlockBytes  uint64
	// FanEncodes/FanShared: block frames encoded once vs enqueued from
	// the shared fan-out cache.
	FanEncodes uint64
	FanShared  uint64
	// BlocksReceived counts pushes landed in the sync buffer.
	BlocksReceived uint64
	// FlushLingers counts writes that waited out the FlushDelay spacing
	// before going to the wire, and FlushLingerNanos the total time they
	// waited: near zero on a lightly loaded plane, most writes at
	// saturation.
	FlushLingers     uint64
	FlushLingerNanos uint64
}

// Stats returns a snapshot of the node's data-plane counters.
func (n *Node) Stats() NetStats {
	return NetStats{
		FramesSent:       n.stats.framesSent.Load(),
		WriteCalls:       n.stats.writeCalls.Load(),
		BytesSent:        n.stats.bytesSent.Load(),
		BMFrames:         n.stats.bmFrames.Load(),
		BMBytes:          n.stats.bmBytes.Load(),
		BlockFrames:      n.stats.blockFrames.Load(),
		BlockBytes:       n.stats.blockBytes.Load(),
		FanEncodes:       n.stats.fanEncodes.Load(),
		FanShared:        n.stats.fanShared.Load(),
		BlocksReceived:   n.stats.blocksReceived.Load(),
		FlushLingers:     n.stats.flushLingers.Load(),
		FlushLingerNanos: n.stats.flushLingerNanos.Load(),
	}
}
