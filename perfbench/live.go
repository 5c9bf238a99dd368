package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"coolstream/internal/buffer"
	"coolstream/internal/core"
	"coolstream/internal/netboot"
	"coolstream/internal/netpeer"
	"coolstream/internal/xrand"
)

// liveSize shapes the live-swarm workload.
type liveSize struct {
	// relays subscribe every lane from the source; each leaf stripes
	// its lanes across two relays.
	relays, leaves int
	// joinRate is the open-loop Poisson arrival rate of joiners (1/s).
	joinRate float64
	// Joiners watch for a session drawn uniformly from
	// [sessionMin, sessionMax].
	sessionMin, sessionMax time.Duration
	setups                 int
}

func liveSizeFor(tiny bool) liveSize {
	if tiny {
		return liveSize{relays: 2, leaves: 2, joinRate: 3, sessionMin: 300 * time.Millisecond,
			sessionMax: time.Second, setups: 1}
	}
	return liveSize{relays: 4, leaves: 12, joinRate: 2, sessionMin: 1500 * time.Millisecond,
		sessionMax: 4 * time.Second, setups: 3}
}

// liveLayout is a 1 Mbps stream in K=8 sub-streams of 1250-byte
// blocks: 100 blocks/s, 12.5 per lane.
var liveLayout = buffer.Layout{K: 8, RateBps: 1e6, BlockBytes: 1250}

const (
	// pollSleep is the latency poller's pause between sweeps, slept
	// with nanosleep(2) on the poller's own thread (about 0.6 ms a
	// sweep). Go's timers would wake the poller on the same ~1 ms grid
	// as the source's emission ticker, and whichever of the two ran
	// first on a shared tick would bias every latency sample of the run
	// by a whole sweep.
	pollSleep = 500 * time.Microsecond
	// leaseTTL is short so crashed joiners fall out of the tracker
	// quickly; the benchmark renews the established tier's leases.
	leaseTTL   = 3 * time.Second
	renewEvery = time.Second
	// settle excludes blocks emitted this close to the end of the
	// window (a quarter of it, for windows under 4 s): every
	// established peer's deadline for them may not have passed yet.
	settle       = time.Second
	joinDeadline = 4 * time.Second
)

// abortFrac of the joiners crash out (Abort) instead of leaving (Close
// + tracker Leave): the paper's ungraceful departures, at the fraction
// the fluid engine and paper-day use.
var abortFrac = core.DefaultConfig().CrashProb

// estPeer is one member of the established tier.
type estPeer struct {
	node    *netpeer.Node
	id      int32
	addr    string
	depth   int
	readyAt time.Time
}

// swarm is the tracker plus the established overlay.
type swarm struct {
	tracker     *netboot.TCPServer
	trackerAddr string
	src         *netpeer.Node
	srcAddr     string
	est         []*estPeer
	renew       *netboot.TCPClient
	stopRenew   chan struct{}
	renewDone   chan struct{}
}

func nodeConfig(id int32, uploadX float64, partners, slots int) netpeer.Config {
	return netpeer.Config{
		ID: id, Layout: liveLayout, UploadBps: uploadX * liveLayout.RateBps,
		BMPeriod: 50 * time.Millisecond, BufferBlocks: 600, ReadyBlocks: 5,
		WriteTimeout: 2 * time.Second,
		// The admission ladder's peer-side rungs.
		MaxPartners: partners, UploadSlots: slots,
	}
}

// setupSwarm starts the tracker and the established overlay with an
// explicit, seed-independent topology, and returns once every
// established peer plays.
func setupSwarm(sz liveSize, seed uint64) (s *swarm, err error) {
	s = &swarm{}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	reg := netboot.NewRegistry(netboot.RegistryConfig{Seed: seed, LeaseTTL: leaseTTL})
	reg.EnableShedding(netboot.ShedConfig{MaxOpsPerSec: 200, RetryAfter: 250 * time.Millisecond})
	s.tracker = netboot.NewTCPServer(reg, netboot.TCPServerConfig{})
	if s.trackerAddr, err = s.tracker.Listen("127.0.0.1:0"); err != nil {
		return s, err
	}
	s.renew = netboot.NewTCPClient(s.trackerAddr)
	s.renew.SetTimeout(2 * time.Second)

	k := liveLayout.K
	if s.src, err = netpeer.New(nodeConfig(0, 8, sz.relays+2, (sz.relays+1)*k)); err != nil {
		return s, err
	}
	if s.srcAddr, err = s.src.Listen(); err != nil {
		return s, err
	}
	if err = s.src.StartSource(); err != nil {
		return s, err
	}
	add := func(id int32, depth int, uploadX float64, partners, slots int) (*estPeer, error) {
		n, err := netpeer.New(nodeConfig(id, uploadX, partners, slots))
		if err != nil {
			return nil, err
		}
		p := &estPeer{node: n, id: id, depth: depth}
		s.est = append(s.est, p)
		if p.addr, err = n.Listen(); err != nil {
			return nil, err
		}
		return p, n.InitBuffers(0)
	}
	subscribe := func(p *estPeer, parentAddr string, lanes []int) error {
		pid, err := p.node.Connect(parentAddr)
		if err != nil {
			return fmt.Errorf("peer %d connect: %w", p.id, err)
		}
		for _, j := range lanes {
			if err := p.node.Subscribe(pid, j, 0); err != nil {
				return err
			}
		}
		return nil
	}
	all := make([]int, k)
	for j := range all {
		all[j] = j
	}
	var relays []*estPeer
	for i := 0; i < sz.relays; i++ {
		p, err := add(int32(1+i), 1, 6, 12, 5*k)
		if err != nil {
			return s, err
		}
		if err := subscribe(p, s.srcAddr, all); err != nil {
			return s, err
		}
		relays = append(relays, p)
	}
	for i := 0; i < sz.leaves; i++ {
		p, err := add(int32(1+sz.relays+i), 2, 3, 8, 2*k)
		if err != nil {
			return s, err
		}
		a, b := relays[i%len(relays)], relays[(i+1)%len(relays)]
		if err := subscribe(p, a.addr, all[:k/2]); err != nil {
			return s, err
		}
		if err := subscribe(p, b.addr, all[k/2:]); err != nil {
			return s, err
		}
	}
	if err := s.registerAll(); err != nil {
		return s, err
	}
	deadline := time.Now().Add(10 * time.Second)
	for waiting := len(s.est); waiting > 0; {
		if time.Now().After(deadline) {
			return s, fmt.Errorf("live-swarm: %d established peers not playing after 10s", waiting)
		}
		time.Sleep(pollSleep)
		now := time.Now()
		waiting = 0
		for _, p := range s.est {
			if p.readyAt.IsZero() {
				if p.node.Ready() {
					p.readyAt = now
				} else {
					waiting++
				}
			}
		}
	}
	s.stopRenew, s.renewDone = make(chan struct{}), make(chan struct{})
	go s.renewLoop()
	return s, nil
}

func (s *swarm) registerAll() error {
	if err := s.renew.Register(0, s.srcAddr); err != nil {
		return fmt.Errorf("register source: %w", err)
	}
	for _, p := range s.est {
		if err := s.renew.Register(p.id, p.addr); err != nil {
			return fmt.Errorf("register %d: %w", p.id, err)
		}
	}
	return nil
}

// renewLoop keeps the established tier's tracker leases alive, as the
// maintenance manager's lease renewal would.
func (s *swarm) renewLoop() {
	defer close(s.renewDone)
	t := time.NewTicker(renewEvery)
	defer t.Stop()
	for {
		select {
		case <-s.stopRenew:
			return
		case <-t.C:
			// A failed renewal is retried on the next tick, well inside
			// the lease.
			_ = s.registerAll()
		}
	}
}

func (s *swarm) close() {
	if s.stopRenew != nil {
		close(s.stopRenew)
		<-s.renewDone
	}
	for _, p := range s.est {
		p.node.Close()
	}
	if s.src != nil {
		s.src.Close()
	}
	if s.renew != nil {
		s.renew.Close()
	}
	if s.tracker != nil {
		s.tracker.Close()
	}
}

// bootStats is the tracker-call timing gathered by timedBoot.
type bootStats struct {
	mu                   sync.Mutex
	register, cand, leav []float64
	calls, unavailable   int
}

// timedBoot is the traced run's netpeer.Bootstrap: it times every
// tracker call a joiner makes through its netboot.TCPClient.
type timedBoot struct {
	inner netpeer.Bootstrap
	st    *bootStats
}

func (b timedBoot) record(dst *[]float64, start time.Time, err error) {
	d := ms(time.Since(start))
	b.st.mu.Lock()
	*dst = append(*dst, d)
	b.st.calls++
	if errors.Is(err, netboot.ErrUnavailable) {
		b.st.unavailable++
	}
	b.st.mu.Unlock()
}

func (b timedBoot) Register(id int32, addr string) error {
	t := time.Now()
	err := b.inner.Register(id, addr)
	b.record(&b.st.register, t, err)
	return err
}

func (b timedBoot) Leave(id int32) error {
	t := time.Now()
	err := b.inner.Leave(id)
	b.record(&b.st.leav, t, err)
	return err
}

func (b timedBoot) Candidates(n int, exclude int32) ([]netboot.Entry, error) {
	t := time.Now()
	es, err := b.inner.Candidates(n, exclude)
	b.record(&b.st.cand, t, err)
	return es, err
}

// joinPlan is one scheduled joiner.
type joinPlan struct {
	id      int32
	at      time.Duration
	session time.Duration
	abort   bool
}

// joinSchedule draws the open-loop arrival schedule over [0, window)
// from the seed: a Poisson process conditioned on its expected count
// joinRate×window, i.e. that many arrival times drawn uniformly and
// sorted. Fixing the count keeps every seed's offered load equal, so
// seeds differ in when joiners arrive and how long they stay, not in
// how many there are.
func joinSchedule(sz liveSize, seed uint64, window time.Duration, firstID int32) []joinPlan {
	rng := xrand.New(seed).SplitLabeled("joiners")
	n := int(math.Round(sz.joinRate * window.Seconds()))
	ats := make([]float64, n)
	for i := range ats {
		ats[i] = rng.Float64() * window.Seconds()
	}
	sort.Float64s(ats)
	span := float64(sz.sessionMax - sz.sessionMin)
	plans := make([]joinPlan, n)
	for i, at := range ats {
		plans[i] = joinPlan{
			id:      firstID + int32(i),
			at:      time.Duration(at * float64(time.Second)),
			session: sz.sessionMin + time.Duration(rng.Float64()*span),
			abort:   rng.Float64() < abortFrac,
		}
	}
	return plans
}

// joinOutcome is one joiner's result.
type joinOutcome struct {
	joined  bool
	ttfb    time.Duration // from the scheduled arrival
	call    time.Duration // the Node.Join call
	stats   netpeer.JoinStats
	lateGen time.Duration
}

// dataTotals sums data-plane counters over a set of nodes.
type dataTotals struct {
	blocks, bytes, frames, writes, fanShared, fanEnc uint64
}

func (t *dataTotals) add(st netpeer.NetStats, sign int) {
	f := func(dst *uint64, v uint64) {
		if sign > 0 {
			*dst += v
		} else {
			*dst -= v
		}
	}
	f(&t.blocks, st.BlocksReceived)
	f(&t.bytes, st.BytesSent)
	f(&t.frames, st.FramesSent)
	f(&t.writes, st.WriteCalls)
	f(&t.fanShared, st.FanShared)
	f(&t.fanEnc, st.FanEncodes)
}

// joinerAcct folds joiners' data-plane counters into the window: a
// joiner that leaves inside the window is counted at its departure,
// one still present when the window ends is counted then.
type joinerAcct struct {
	mu     sync.Mutex
	live   map[*netpeer.Node]bool
	closed bool
	tot    dataTotals
	ladder ladderCounts
}

func (a *joinerAcct) fold(n *netpeer.Node) {
	a.tot.add(n.Stats(), 1)
	a.ladder.add(n, 1)
}

// ladderCounts are the overload-ladder counters of a set of nodes.
type ladderCounts struct{ slow, aborts, shed int64 }

func (l *ladderCounts) add(n *netpeer.Node, sign int64) {
	r := n.Recovery()
	l.slow += sign * int64(r.SlowPartnerTeardowns)
	l.aborts += sign * int64(r.PusherAborts)
	l.shed += sign * int64(n.Admission().HandshakesShed)
}

func (a *joinerAcct) start(n *netpeer.Node) {
	a.mu.Lock()
	if !a.closed {
		a.live[n] = true
	}
	a.mu.Unlock()
}

func (a *joinerAcct) leave(n *netpeer.Node) {
	a.mu.Lock()
	if a.live[n] {
		delete(a.live, n)
		a.fold(n)
	}
	a.mu.Unlock()
}

func (a *joinerAcct) closeWindow() {
	a.mu.Lock()
	for n := range a.live {
		a.fold(n)
	}
	a.live, a.closed = nil, true
	a.mu.Unlock()
}

// latencyPoller samples Latest(j) on the source and every established
// peer and records when each block first appears at each.
type latencyPoller struct {
	nodes []*netpeer.Node // source first
	// seen[i][j][seq] is the estimated first appearance of block
	// (j, seq) at node i: the midpoint between the sweep that first saw
	// it and the one before.
	seen      [][][]time.Time
	sweeps    int
	cpu       time.Duration
	goroutine int
}

func newLatencyPoller(s *swarm) *latencyPoller {
	p := &latencyPoller{nodes: []*netpeer.Node{s.src}}
	for _, e := range s.est {
		p.nodes = append(p.nodes, e.node)
	}
	p.seen = make([][][]time.Time, len(p.nodes))
	for i := range p.seen {
		p.seen[i] = make([][]time.Time, liveLayout.K)
	}
	return p
}

// run polls until stop closes. It owns its OS thread so the thread's
// CPU time is the poller's own cost.
func (p *latencyPoller) run(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	pause := syscall.NsecToTimespec(int64(pollSleep))
	cpu0 := threadCPUTime()
	k := liveLayout.K
	last := make([][]int64, len(p.nodes))
	prev := make([]time.Time, len(p.nodes))
	for i, n := range p.nodes {
		last[i] = make([]int64, k)
		prev[i] = time.Now()
		for j := 0; j < k; j++ {
			last[i][j] = n.Latest(j)
		}
	}
	for {
		select {
		case <-stop:
			p.cpu = threadCPUTime() - cpu0
			return
		default:
		}
		syscall.Nanosleep(&pause, nil)
		p.sweeps++
		if g := runtime.NumGoroutine(); g > p.goroutine {
			p.goroutine = g
		}
		for i, n := range p.nodes {
			now := time.Now()
			mid := prev[i].Add(now.Sub(prev[i]) / 2)
			for j := 0; j < k; j++ {
				l := n.Latest(j)
				for seq := last[i][j] + 1; seq <= l; seq++ {
					for int64(len(p.seen[i][j])) <= seq {
						p.seen[i][j] = append(p.seen[i][j], time.Time{})
					}
					p.seen[i][j][seq] = mid
				}
				if l > last[i][j] {
					last[i][j] = l
				}
			}
			prev[i] = now
		}
	}
}

func (p *latencyPoller) at(i, j int, seq int64) time.Time {
	if seq < 0 || seq >= int64(len(p.seen[i][j])) {
		return time.Time{}
	}
	return p.seen[i][j][seq]
}

// liveWindow is the outcome of one measured window.
type liveWindow struct {
	dur         time.Duration
	latAll      []float64 // ms, missing = +Inf
	latDepth    map[int][]float64
	blocksDue   int64
	blocksMiss  int64
	contMin     float64
	cpu         time.Duration
	tot         dataTotals
	estBMBytes  uint64
	outcomes    []joinOutcome
	pollCPU     time.Duration
	pollEvery   time.Duration
	goroutines  int
	ladder      ladderCounts
	mem0, mem1  memSample
	boot        *bootStats
	trackerShed uint64
}

// measure streams for dur with the joiner schedule running beside the
// established tier. traced wraps every joiner's tracker client in
// timedBoot.
func (s *swarm) measure(plans []joinPlan, dur time.Duration, traced bool) *liveWindow {
	w := &liveWindow{dur: dur, latDepth: map[int][]float64{}}
	if traced {
		w.boot = &bootStats{}
	}
	k := liveLayout.K
	type play struct{ on, total int64 }
	before := make([]play, len(s.est))
	var base dataTotals
	st := s.src.Stats()
	base.add(st, -1)
	w.estBMBytes -= st.BMBytes
	w.ladder.add(s.src, -1)
	for i, p := range s.est {
		before[i].on, before[i].total = p.node.PlaybackStats()
		st := p.node.Stats()
		base.add(st, -1)
		w.estBMBytes -= st.BMBytes
		w.ladder.add(p.node, -1)
	}
	acct := &joinerAcct{live: map[*netpeer.Node]bool{}}
	poller := newLatencyPoller(s)
	stopPoll, pollDone := make(chan struct{}), make(chan struct{})
	stopJoin := make(chan struct{})
	w.outcomes = make([]joinOutcome, len(plans))
	var joiners sync.WaitGroup

	shed0 := s.tracker.Registry().ShedStats()
	w.mem0 = readMem()
	cpu0 := cpuTime()
	t0 := time.Now()
	go poller.run(stopPoll, pollDone)
	genDone := make(chan struct{})
	go func() {
		defer close(genDone)
		for i, pl := range plans {
			due := t0.Add(pl.at)
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			late := time.Since(due)
			joiners.Add(1)
			go func(i int, pl joinPlan) {
				defer joiners.Done()
				w.outcomes[i] = s.runJoiner(pl, due, traced, w.boot, acct, stopJoin)
				w.outcomes[i].lateGen = late
			}(i, pl)
		}
	}()
	time.Sleep(dur)
	t1 := time.Now()
	w.cpu = cpuTime() - cpu0
	w.mem1 = readMem()
	close(stopPoll)
	<-pollDone
	acct.closeWindow()
	w.tot = base
	st = s.src.Stats()
	w.tot.add(st, 1)
	w.estBMBytes += st.BMBytes
	w.contMin = 1
	for i, p := range s.est {
		on, total := p.node.PlaybackStats()
		ci := 0.0
		if d := total - before[i].total; d > 0 {
			ci = float64(on-before[i].on) / float64(d)
		}
		w.contMin = math.Min(w.contMin, ci)
		st := p.node.Stats()
		w.tot.add(st, 1)
		w.estBMBytes += st.BMBytes
		w.ladder.add(p.node, 1)
	}
	w.ladder.add(s.src, 1)
	w.tot.blocks += acct.tot.blocks
	w.tot.bytes += acct.tot.bytes
	w.tot.frames += acct.tot.frames
	w.tot.writes += acct.tot.writes
	w.tot.fanShared += acct.tot.fanShared
	w.tot.fanEnc += acct.tot.fanEnc
	w.ladder.slow += acct.ladder.slow
	w.ladder.aborts += acct.ladder.aborts
	w.ladder.shed += acct.ladder.shed
	w.pollCPU, w.goroutines = poller.cpu, poller.goroutine
	w.pollEvery = t1.Sub(t0) / time.Duration(max(1, poller.sweeps))
	shed1 := s.tracker.Registry().ShedStats()
	w.trackerShed = shed1.NewRegistrations - shed0.NewRegistrations + shed1.Candidates - shed0.Candidates

	// Every arrival falls inside the window, so the generator ends
	// within one timer tick of it; joins still in flight finish (their
	// time to first block counts), then every joiner leaves.
	<-genDone
	close(stopJoin)
	joiners.Wait()

	// Block latency: blocks the source emitted inside the window,
	// excluding the last settle interval, at every established peer.
	for j := 0; j < k; j++ {
		for seq := int64(0); seq < int64(len(poller.seen[0][j])); seq++ {
			ts := poller.at(0, j, seq)
			if ts.IsZero() || ts.Before(t0) || ts.After(t1.Add(-min(settle, dur/4))) {
				continue
			}
			for i, p := range s.est {
				tp := poller.at(i+1, j, seq)
				deadline := p.readyAt.Add(time.Duration(liveLayout.SeqToSeconds(float64(seq)) * float64(time.Second)))
				w.blocksDue++
				lat := missing
				if !tp.IsZero() && !tp.After(deadline) {
					lat = ms(tp.Sub(ts))
				} else {
					w.blocksMiss++
				}
				w.latAll = append(w.latAll, lat)
				w.latDepth[p.depth] = append(w.latDepth[p.depth], lat)
			}
		}
	}
	return w
}

// runJoiner is one joiner's life: create, join through the tracker,
// watch for the planned session, then leave or crash.
func (s *swarm) runJoiner(pl joinPlan, due time.Time, traced bool, bs *bootStats, acct *joinerAcct, stop <-chan struct{}) joinOutcome {
	var out joinOutcome
	n, err := netpeer.New(nodeConfig(pl.id, 3, 8, 2*liveLayout.K))
	if err != nil {
		return out
	}
	addr, err := n.Listen()
	if err != nil {
		n.Close()
		return out
	}
	client := netboot.NewTCPClient(s.trackerAddr)
	client.SetTimeout(2 * time.Second)
	defer client.Close()
	var boot netpeer.Bootstrap = client
	if traced {
		boot = timedBoot{inner: client, st: bs}
	}
	acct.start(n)
	start := time.Now()
	st, jerr := n.Join(netpeer.JoinConfig{
		Boot: boot, SelfAddr: addr, Register: true,
		TargetPartners: 2, Deadline: joinDeadline,
	})
	out.call = time.Since(start)
	out.stats = st
	if jerr == nil && st.Joined {
		out.joined = true
		out.ttfb = start.Add(st.TimeToFirstBlock).Sub(due)
		select {
		case <-time.After(pl.session):
		case <-stop:
		}
	}
	acct.leave(n)
	if pl.abort {
		n.Abort()
		return out
	}
	n.Close()
	// A lost Leave only leaves the lease to expire, as a crash does.
	_ = boot.Leave(pl.id)
	return out
}

// goroutinesSettle waits up to timeout for the goroutine count to fall
// back to baseline.
func goroutinesSettle(baseline int, timeout time.Duration) bool {
	for end := time.Now().Add(timeout); ; time.Sleep(10 * time.Millisecond) {
		if runtime.NumGoroutine() <= baseline {
			return true
		}
		if time.Now().After(end) {
			return false
		}
	}
}

// runLiveSwarm is the live-swarm workload.
func runLiveSwarm(opts options) (*report, error) {
	sz := liveSizeFor(opts.tiny)
	rep := newReport()
	baseline := runtime.NumGoroutine()

	var setups []time.Duration
	var s *swarm
	for i := 0; i < sz.setups; i++ {
		if s != nil {
			s.close()
		}
		t := time.Now()
		var err error
		if s, err = setupSwarm(sz, opts.seed); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t))
	}

	var w *liveWindow
	if !opts.trace {
		w = s.measure(joinSchedule(sz, opts.seed, opts.window, 1000), opts.window, false)
	} else {
		// Half the window untraced, half traced: the difference of the
		// headline latency is the tracing overhead.
		half := opts.window / 2
		u := s.measure(joinSchedule(sz, opts.seed, half, 1000), half, false)
		w = s.measure(joinSchedule(sz, opts.seed^0x7a3, half, 10000), half, true)
		rep.set("bench.trace_overhead_latency_ms", "ms",
			percentile(w.latAll, 0.5, ms(half))-percentile(u.latAll, 0.5, ms(half)))
	}
	s.close()
	rep.Env["poll_interval_ms"] = ms(w.pollEvery)
	rep.Env["poll_cpu_share"] = w.pollCPU.Seconds() / w.cpu.Seconds()

	// Teardown check: every goroutine the run started has ended.
	rep.check(goroutinesSettle(baseline, 5*time.Second),
		fmt.Sprintf("goroutines did not return to the pre-run baseline %d (now %d)", baseline, runtime.NumGoroutine()))

	joined, failed := 0, 0
	var ttfb, retries, joinCall, toPartner, late []float64
	var rejects, laneRetries int
	for _, o := range w.outcomes {
		late = append(late, ms(o.lateGen))
		retries = append(retries, float64(o.stats.Retries))
		rejects += o.stats.Rejects
		laneRetries += o.stats.LaneRetries
		joinCall = append(joinCall, ms(o.call))
		if o.joined {
			joined++
			ttfb = append(ttfb, ms(o.ttfb))
			toPartner = append(toPartner, ms(o.stats.TimeToPartner))
		} else {
			failed++
			ttfb = append(ttfb, missing)
		}
	}
	ceil := ms(joinDeadline)
	scheduled := len(w.outcomes)
	rep.Attempted = int64(scheduled) + w.blocksDue
	rep.Failed = int64(failed) + w.blocksMiss
	rep.check(w.blocksDue > 0 && w.tot.blocks > 0, "no block was delivered in the window")
	rep.check(scheduled > 0, "no joiner was scheduled in the window")
	if len(rep.Failures) > 0 {
		return rep, nil
	}
	cores := w.cpu.Seconds() / w.dur.Seconds()
	winMs := ms(w.dur)
	if !opts.trace {
		rep.set("setup_s", "s", medianDur(setups))
		rep.set("peak_rss_mb", "MB", peakRSSMB())
		rep.set("latency_ms", "ms", percentile(w.latAll, 0.50, winMs))
		rep.set("cpu_ms", "ms", ms(w.cpu)/float64(w.tot.blocks))
		rep.set("alloc_kb", "KB", w.mem0.allocKB(w.mem1)/float64(w.tot.blocks))
		rep.Env["proc_cpu_util"] = cores
		return rep, nil
	}
	rep.set("netpeer.join_success", "ratio", float64(joined)/float64(scheduled))
	rep.set("netpeer.ttfb_p50_ms", "ms", percentile(ttfb, 0.50, ceil))
	rep.set("netpeer.ttfb_p90_ms", "ms", percentile(ttfb, 0.90, ceil))
	rep.set("netpeer.continuity_min", "ratio", w.contMin)
	rep.set("netpeer.wire_bytes_per_block", "B", float64(w.tot.bytes)/float64(w.tot.blocks))
	bs := w.boot
	rep.set("netboot.register_ms_p50", "ms", percentile(bs.register, 0.5, ceil))
	rep.set("netboot.candidates_ms_p50", "ms", percentile(bs.cand, 0.5, ceil))
	rep.set("netboot.candidates_ms_p99", "ms", percentile(bs.cand, 0.99, ceil))
	rep.set("netboot.leave_ms_p50", "ms", percentile(bs.leav, 0.5, ceil))
	rep.set("netboot.calls", "count", float64(bs.calls))
	rep.set("netboot.unavailable", "count", float64(bs.unavailable))
	rep.set("netboot.shed", "count", float64(w.trackerShed))
	rep.set("netpeer.join_ms_p50", "ms", percentile(joinCall, 0.5, ceil))
	rep.set("netpeer.time_to_partner_ms_p50", "ms", percentile(toPartner, 0.5, ceil))
	rep.set("netpeer.join_retries_p90", "count", percentile(retries, 0.9, 0))
	rep.set("netpeer.rejects", "count", float64(rejects))
	rep.set("netpeer.lane_retries", "count", float64(laneRetries))
	rep.set("netpeer.blocks_delivered", "count", float64(w.tot.blocks))
	rep.set("netpeer.writes_per_block", "ratio", float64(w.tot.writes)/float64(w.tot.blocks))
	rep.set("netpeer.frames_per_write", "ratio", float64(w.tot.frames)/math.Max(1, float64(w.tot.writes)))
	rep.set("netpeer.bm_bytes_per_peer_s", "B/s", float64(w.estBMBytes)/float64(len(s.est)+1)/w.dur.Seconds())
	rep.set("netpeer.fan_shared_frac", "ratio", float64(w.tot.fanShared)/math.Max(1, float64(w.tot.fanShared+w.tot.fanEnc)))
	rep.set("netpeer.latency_p99_ms", "ms", percentile(w.latAll, 0.99, winMs))
	rep.set("netpeer.latency_d1_p50_ms", "ms", percentile(w.latDepth[1], 0.5, winMs))
	rep.set("netpeer.latency_d2_p50_ms", "ms", percentile(w.latDepth[2], 0.5, winMs))
	rep.set("netpeer.slow_partner_teardowns", "count", float64(w.ladder.slow))
	rep.set("netpeer.pusher_aborts", "count", float64(w.ladder.aborts))
	rep.set("netpeer.handshakes_shed", "count", float64(w.ladder.shed))
	rep.set("proc.cpu_util", "cores", cores)
	rep.set("go.goroutines_peak", "count", float64(w.goroutines))
	rep.setGCMetrics(w.mem0, w.mem1)
	rep.set("bench.gen_late_ms_p99", "ms", percentile(late, 0.99, winMs))
	rep.set("bench.poll_cpu_share", "ratio", w.pollCPU.Seconds()/w.cpu.Seconds())
	return rep, nil
}
