package peer

import (
	"sort"

	"coolstream/internal/buffer"
	"coolstream/internal/gossip"
	"coolstream/internal/netmodel"
	"coolstream/internal/sim"
	"coolstream/internal/xrand"
)

// State is a node's lifecycle phase.
type State uint8

const (
	// StateJoining means the node has contacted the bootstrap but has
	// not yet subscribed to any sub-stream.
	StateJoining State = iota
	// StateSubscribing means at least one sub-stream subscription is
	// active but the media player has not started.
	StateSubscribing
	// StateReady means the media player is playing.
	StateReady
	// StateDeparted means the node has left the overlay.
	StateDeparted
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case StateJoining:
		return "joining"
	case StateSubscribing:
		return "subscribing"
	case StateReady:
		return "ready"
	case StateDeparted:
		return "departed"
	default:
		return "unknown"
	}
}

// NoParent marks a sub-stream without a live parent.
const NoParent = -1

// nodeHot packs the playback-phase hot per-node fields — the playback
// deadline position and the continuity accumulators of one report
// interval — carved from per-shard contiguous arenas (nodeChunk
// granularity, like the node shells themselves): the playback sweep
// touches exactly these fields for every ready node every tick, and
// packing them keeps that sweep on dense cache lines instead of
// striding whole node shells. They are deliberately outside the run
// digest: playback integration feeds the digest only through the
// records and departures it triggers.
type nodeHot struct {
	playDeadline float64 // current deadline position (per-sub-stream seq)
	missedBlocks float64
	totalBlocks  float64
}

// Subscription is one sub-stream's receive state.
type Subscription struct {
	// Parent is the serving node ID, or NoParent when stalled.
	Parent int
	// H is the per-sub-stream sequence number of the latest received
	// block, fractional under the fluid model.
	H float64
	// RateBps is the currently allocated transfer rate.
	RateBps float64
	// movedBlocks accumulates this tick's H advance for byte
	// accounting; drained by the sequential accounting pass.
	movedBlocks float64
}

// Partner is the local view of one partnership.
type Partner struct {
	// Outgoing records who initiated: true when we initiated the
	// partnership (we are the "outgoing" side). The log-based user
	// classifier relies on this directionality.
	Outgoing bool
	// BM is the partner's last exchanged buffer map.
	BM buffer.BufferMap
	// BMAt is when BM was refreshed.
	BMAt sim.Time
	// EstablishedAt is when the partnership formed.
	EstablishedAt sim.Time
}

// Node is one overlay participant.
type Node struct {
	ID      int
	UserID  int
	Session int
	EP      netmodel.Endpoint
	State   State
	// shard is the owning world shard, fixed at creation by the stable
	// ID hash (see shardIndex); a node never migrates.
	shard int32

	// Timing milestones (virtual).
	JoinedAt   sim.Time
	StartSubAt sim.Time // zero until the first subscription
	ReadyAt    sim.Time // zero until media-ready
	LeftAt     sim.Time

	// Retries is how many failed sessions this user had before this one.
	Retries int

	// Membership and partnership state. Partners must be mutated only
	// through setPartner/delPartner/clearPartners so partnerIDs stays
	// in sync.
	MCache   *gossip.MCache
	Partners map[int]*Partner
	// partnerIDs mirrors the keys of Partners in ascending order,
	// maintained incrementally so the hot control paths (BM refresh,
	// gossip, subscribe, adaptation) iterate partners deterministically
	// without a per-call map→slice→sort round trip. partnerList holds
	// the matching values at the same positions, sparing those paths a
	// map lookup per partner per tick.
	partnerIDs  []int
	partnerList []*Partner
	// bmDue is a conservative lower bound on the next time any partner
	// BM refresh (or failure detection) can be due; refreshBMs skips its
	// scan entirely before then. Zero means "scan now".
	bmDue sim.Time

	// Subs has one entry per sub-stream.
	Subs []Subscription
	// children[j] lists node IDs subscribed to sub-stream j from this
	// node, kept sorted for deterministic allocation.
	children [][]int

	// startPos is the per-sub-stream sequence chosen at join (m - Tp).
	startPos float64

	// hot points at the node's packed playback-phase fields in its
	// shard's contiguous hot arena (see nodeHot and newNode): the
	// playback sweep touches deadline and continuity accumulators for
	// every ready node every tick, and packing them keeps that sweep
	// on dense cache lines instead of striding whole node shells.
	hot *nodeHot
	// readyPending defers the media-ready bookkeeping (session counter,
	// and — without a sharded sink — the log record) from the parallel
	// playback phase to the sequential control phase. readyLogged marks
	// that the record itself was already emitted from a playback lane.
	readyPending bool
	readyLogged  bool

	// Report-interval accumulators.
	upBytes       float64
	downBytes     float64
	lastReportAt  sim.Time
	CumUploadB    float64
	CumDownloadB  float64
	lastAdaptAt   sim.Time
	lastGossipAt  sim.Time
	recruitingDue sim.Time
	// bootAttempts counts consecutive failed bootstrap contacts (tracker
	// outage), driving the re-contact backoff; reset on first success.
	bootAttempts int

	// watch and patience carry the user's intent: how long they mean
	// to stay and how many failed joins they will retry.
	watch    sim.Time
	patience int

	// partnerChanges counts partnership establishments and losses in
	// the current report interval — the compact partner-activity
	// series of the paper's partner report, and the raw material of
	// the overlay-stability metric (§V-E's third scalability factor).
	partnerChanges int

	// topo points at the owning World's topology cache so the child
	// registry mutators can bump sub-stream epochs; nil for detached
	// nodes built in unit tests.
	topo *topoCache

	// Per-node scratch reused across ticks so the steady-state hot
	// paths allocate nothing: the allocation phase's demand/slot
	// vectors and water-filler, and subscribe's candidate list. The
	// filler is pooled through the World (its scratch outlives the
	// session) and is nil for detached nodes built in unit tests.
	allocDemands []netmodel.Demand
	allocSlots   []allocSlot
	filler       *netmodel.Filler
	candScratch  []int

	// Due-wheel control scheduling state (see sched.go). adaptDue is a
	// conservative lower bound on the next time the §IV-B adaptation
	// check can newly trigger; zero forces an evaluation at the next
	// visit. wheelAt is the earliest virtual time this node is queued
	// in the control wheel (zero = not queued), used to suppress
	// duplicate enqueues. advFlag is raised by the playback phase when
	// the Inequality (1) deviation is across Ts with the cool-down
	// expired — the fluid half of the adaptation trigger — and consumed
	// by the same tick's control visit. bestSeen is the best-partner
	// head as of the last §IV-B evaluation: a BM refresh that does not
	// beat it, touch a parent, or tear a partnership down provably
	// cannot create a new Inequality (2) violation.
	adaptDue sim.Time
	wheelAt  sim.Time
	advFlag  bool
	bestSeen int64

	// pool recycles Partner structs (with their buffer-map backing)
	// through the owning World; nil for detached nodes in unit tests.
	pool *partnerPool

	// leaveEv and timeoutEv are the node's cancellable timers, held on
	// the shell (not a world map: per-session map keys would be new on
	// every join, and a delete/insert-churned map periodically reallocates
	// its buckets). The handle is dropped at fire or cancel, before the
	// engine recycles the event.
	leaveEv   *sim.Event
	timeoutEv *sim.Event

	// rng points at rngStore: the node's RNG lives inline in the node
	// shell (seeded allocation-free from the world stream and the
	// node-ID label), not in a separate heap object.
	rng      *xrand.RNG
	rngStore xrand.RNG
}

// partnerPool recycles Partner structs across sessions: a recycled
// struct keeps its buffer-map backing, so partnership establishment on
// a churning overlay allocates nothing at steady state.
type partnerPool struct{ free []*Partner }

func (pp *partnerPool) get() *Partner {
	if n := len(pp.free); n > 0 {
		p := pp.free[n-1]
		pp.free[n-1] = nil
		pp.free = pp.free[:n-1]
		return p
	}
	return &Partner{}
}

func (pp *partnerPool) put(p *Partner) {
	if p != nil {
		pp.free = append(pp.free, p)
	}
}

// allocSlot addresses one (child, sub-stream) transmission in the
// allocation phase.
type allocSlot struct{ child, sub int }

// setPartner installs or replaces a partnership, keeping partnerIDs
// sorted and partnerList aligned with it.
func (n *Node) setPartner(pid int, p *Partner) {
	i := sort.SearchInts(n.partnerIDs, pid)
	if _, ok := n.Partners[pid]; !ok {
		n.partnerIDs = append(n.partnerIDs, 0)
		copy(n.partnerIDs[i+1:], n.partnerIDs[i:])
		n.partnerIDs[i] = pid
		n.partnerList = append(n.partnerList, nil)
		copy(n.partnerList[i+1:], n.partnerList[i:])
	}
	n.partnerList[i] = p
	n.Partners[pid] = p
	n.bmDue = 0 // the new partner's refresh schedule starts fresh
}

// delPartner removes a partnership if present, keeping partnerIDs
// sorted and partnerList aligned. The removed Partner struct (with its
// buffer-map backing) goes back to the world pool: each side of a
// partnership owns its own struct, so the donation is single-owner.
func (n *Node) delPartner(pid int) {
	p, ok := n.Partners[pid]
	if !ok {
		return
	}
	delete(n.Partners, pid)
	i := sort.SearchInts(n.partnerIDs, pid)
	n.partnerIDs = append(n.partnerIDs[:i], n.partnerIDs[i+1:]...)
	n.partnerList = append(n.partnerList[:i], n.partnerList[i+1:]...)
	if n.pool != nil {
		n.pool.put(p)
	}
}

// clearPartners drops every partnership (departure teardown), clearing
// the map in place so its buckets can be reissued to a future joiner.
func (n *Node) clearPartners() {
	if n.pool != nil {
		for _, p := range n.partnerList {
			n.pool.put(p)
		}
	}
	for pid := range n.Partners {
		delete(n.Partners, pid)
	}
	n.partnerIDs = n.partnerIDs[:0]
	n.partnerList = n.partnerList[:0]
}

// IsServer reports whether the node is part of the source/server tier.
func (n *Node) IsServer() bool { return n.EP.Server }

// Active reports whether the node is participating in the overlay.
func (n *Node) Active() bool { return n.State != StateDeparted }

// PartnerCounts returns (incoming, outgoing) partnership counts, the
// observable the paper's user classifier is built on (§V-B).
func (n *Node) PartnerCounts() (in, out int) {
	for _, p := range n.Partners {
		if p.Outgoing {
			out++
		} else {
			in++
		}
	}
	return in, out
}

// MaxH returns the node's best sub-stream progress.
func (n *Node) MaxH() float64 {
	if len(n.Subs) == 0 {
		return 0
	}
	max := n.Subs[0].H
	for _, s := range n.Subs[1:] {
		if s.H > max {
			max = s.H
		}
	}
	return max
}

// MinH returns the node's worst sub-stream progress.
func (n *Node) MinH() float64 {
	if len(n.Subs) == 0 {
		return 0
	}
	min := n.Subs[0].H
	for _, s := range n.Subs[1:] {
		if s.H < min {
			min = s.H
		}
	}
	return min
}

// BufferMap builds the node's current BM as exchanged with partners:
// latest sequence per sub-stream, plus which sub-streams the node
// pulls from the given partner.
func (n *Node) BufferMap(towards int) buffer.BufferMap {
	var bm buffer.BufferMap
	n.fillBufferMap(&bm, towards)
	return bm
}

// fillBufferMap writes the node's current BM into bm in place,
// reusing bm's storage — the allocation-free path of the periodic BM
// refresh.
func (n *Node) fillBufferMap(bm *buffer.BufferMap, towards int) {
	bm.Reset(len(n.Subs))
	for i := range n.Subs {
		s := &n.Subs[i]
		bm.Latest[i] = int64(s.H)
		bm.Subscribed[i] = s.Parent == towards
	}
}

// addChild registers a child on sub-stream j, keeping order sorted,
// and invalidates the sub-stream's cached traversal order.
func (n *Node) addChild(j, child int) {
	cs := n.children[j]
	i := sort.SearchInts(cs, child)
	if i < len(cs) && cs[i] == child {
		return
	}
	cs = append(cs, 0)
	copy(cs[i+1:], cs[i:])
	cs[i] = child
	n.children[j] = cs
	if n.topo != nil {
		n.topo.bump(j)
	}
}

// removeChild deregisters a child on sub-stream j and invalidates the
// sub-stream's cached traversal order.
func (n *Node) removeChild(j, child int) {
	cs := n.children[j]
	i := sort.SearchInts(cs, child)
	if i < len(cs) && cs[i] == child {
		n.children[j] = append(cs[:i], cs[i+1:]...)
		if n.topo != nil {
			n.topo.bump(j)
		}
	}
}

// ChildCount returns the total sub-stream out-degree (the paper's D_p
// summed over sub-streams).
func (n *Node) ChildCount() int {
	total := 0
	for _, cs := range n.children {
		total += len(cs)
	}
	return total
}

// Children returns the child IDs on sub-stream j (read-only view).
func (n *Node) Children(j int) []int { return n.children[j] }

// parentCountByReach tallies current parents by reachability class,
// feeding the partner status report used by the Fig. 4 topology
// analysis.
func (n *Node) parentStats(nodes []*Node) (reachable, total, natLinks int) {
	for _, s := range n.Subs {
		if s.Parent == NoParent {
			continue
		}
		total++
		p := nodes[s.Parent]
		if p.EP.Class.Reachable() {
			reachable++
		} else if !n.EP.Class.Reachable() {
			natLinks++
		}
	}
	return
}
