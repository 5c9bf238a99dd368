package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"coolstream/internal/core"
	"coolstream/internal/gossip"
	"coolstream/internal/logsys"
	"coolstream/internal/metrics"
	"coolstream/internal/netmodel"
	"coolstream/internal/peer"
	"coolstream/internal/sim"
	"coolstream/internal/trace"
	"coolstream/internal/workload"
	"coolstream/internal/xrand"
)

// dayConfig is the compressed broadcast day both fluid workloads run:
// coolsim's `-scenario day -day 48m -rate 4 -servers 12`, about 1,600
// concurrent peers at the evening peak and 360k log records. The tiny
// day is the self-test size and paper-day's set-up warm-up, which pays
// lazy initialisation and first-touch page faults before timing.
func dayConfig(seed uint64, tiny bool) core.Config {
	if tiny {
		c := core.DayConfig(6*sim.Minute, 1, seed)
		c.Servers = 4
		return c
	}
	c := core.DayConfig(48*sim.Minute, 4, seed)
	c.Servers = 12
	return c
}

// figureTables returns the paper's tables for a run. logDerived keeps
// only the tables computed from the log alone, which a replay of the
// run's log must reproduce exactly.
func figureTables(r *core.Result, logDerived bool) []*metrics.Table {
	bucket := r.Horizon() / 200
	if bucket < sim.Second {
		bucket = sim.Second
	}
	ts := []*metrics.Table{
		r.Fig3a(), r.Fig3b(), r.Fig5(bucket), r.Fig6(), r.Fig7(), r.Fig8(bucket),
		r.Fig9a(bucket, 6), r.Fig9b(bucket, 6), r.Fig10a(), r.Fig10b(),
	}
	if !logDerived {
		ts = append(ts, r.Summary(), r.Fig4(), r.Fig10c())
	}
	return ts
}

func renderFigures(r *core.Result, logDerived bool) []byte {
	var b bytes.Buffer
	for _, t := range figureTables(r, logDerived) {
		t.Render(&b)
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// writeFile creates path and hands it to fn, reporting fn's error
// before Close's.
func writeFile(path string, fn func(f *os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return fmt.Errorf("%s: %w", path, err)
	}
	return f.Close()
}

// writeLog writes records in the log-server format the way coolsim
// does: one WriterSink write per record.
func writeLog(path string, recs []logsys.Record) error {
	return writeFile(path, func(f *os.File) error {
		sink := logsys.NewWriterSink(f)
		for _, rec := range recs {
			sink.Log(rec)
		}
		return nil
	})
}

func writeJSONL(path string, recs []logsys.Record) error {
	return writeFile(path, func(f *os.File) error { return trace.WriteRecords(f, recs) })
}

func writeSessions(path string, r *core.Result) error {
	return writeFile(path, func(f *os.File) error {
		return trace.WriteSeries(f, "sessions", r.Analysis.Concurrency(10*sim.Second, r.Horizon()))
	})
}

func writeFigures(path string, figs []byte) error {
	return writeFile(path, func(f *os.File) error {
		_, err := f.Write(figs)
		return err
	})
}

// dayPipeline is the untraced user pipeline: core.Run, every figure,
// then the artifacts coolsim writes.
func dayPipeline(cfg core.Config, dir string) (*core.Result, error) {
	res, err := core.Run(cfg)
	if err != nil {
		return nil, err
	}
	prefix := filepath.Join(dir, "day")
	if err := writeFigures(prefix+".figures.txt", renderFigures(res, false)); err != nil {
		return nil, err
	}
	if err := writeLog(prefix+".log", res.Records); err != nil {
		return nil, err
	}
	if err := writeJSONL(prefix+".jsonl", res.Records); err != nil {
		return nil, err
	}
	return res, writeSessions(prefix+".sessions.csv", res)
}

// dayTrace is one traced day: the wall time of every step.
type dayTrace struct {
	total, generate, run, snapshot, drain, analyze, figures, encode, jsonl time.Duration
	phases                                                                 peer.PhaseNanos
	tickMs                                                                 []float64
	goroutines                                                             int
	res                                                                    *core.Result
}

// tracedDay composes core.Run's steps from the public functions of
// workload, peer, sim, logsys and metrics, timing each, with phase
// metering on. It must reproduce core.Run exactly, which the run
// digest checks. It covers the configurations dayConfig builds: no
// fault plan, one shard, the deployed mCache policy; any other would
// fail the digest check.
func tracedDay(cfg core.Config, dir string) (*dayTrace, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	tr := &dayTrace{}
	start := time.Now()
	engine := sim.NewEngine(cfg.Tick)
	sink := logsys.NewShardedSink(0)
	latency := netmodel.UniformLatency{Min: cfg.LatencyMin, Max: cfg.LatencyMax, Seed: cfg.Seed ^ 0x1a7e9c3}
	world, err := peer.NewWorld(cfg.Params, engine, sink, latency, gossip.RandomReplace{}, cfg.Seed)
	if err != nil {
		return nil, err
	}
	world.Retry = cfg.Retry
	world.MeterPhases(true)
	if cfg.StallContinuity > 0 {
		world.StallContinuity = cfg.StallContinuity
		world.StallAbandonProb = cfg.StallAbandonProb
	}
	world.CrashProb = cfg.CrashProb
	for i := 0; i < cfg.Servers; i++ {
		world.AddServer(cfg.ServerUploadBps)
	}

	t := time.Now()
	scenario, err := workload.Generate(cfg.Workload, xrand.New(cfg.Seed).SplitLabeled("scenario"))
	if err != nil {
		return nil, err
	}
	tr.generate = time.Since(t)
	for _, spec := range scenario.Specs {
		spec := spec
		engine.Schedule(cfg.Warmup+spec.At, func() {
			world.Join(spec.UserID, spec.Endpoint, spec.Watch, spec.Patience, 0)
		})
	}
	res := &core.Result{Config: cfg, Scenario: scenario}
	tr.res = res
	if cfg.SnapshotPeriod > 0 {
		var snapshotLoop func()
		snapshotLoop = func() {
			t := time.Now()
			res.Snapshots = append(res.Snapshots, world.Snapshot())
			tr.snapshot += time.Since(t)
			if engine.Now()+cfg.SnapshotPeriod <= cfg.Horizon() {
				engine.After(cfg.SnapshotPeriod, snapshotLoop)
			}
		}
		engine.After(cfg.SnapshotPeriod, snapshotLoop)
	}
	var lastTick time.Time
	engine.OnTick(func(_, _ sim.Time) {
		if n := world.ActivePeerCount(); n > res.PeakConcurrent {
			res.PeakConcurrent = n
		}
		now := time.Now()
		tr.tickMs = append(tr.tickMs, ms(now.Sub(lastTick)))
		lastTick = now
		if g := runtime.NumGoroutine(); g > tr.goroutines {
			tr.goroutines = g
		}
	})

	t = time.Now()
	lastTick = t
	engine.Run(cfg.Horizon())
	tr.run = time.Since(t)
	tr.phases = world.PhaseStats()

	t = time.Now()
	res.Records = sink.Drain()
	tr.drain = time.Since(t)
	t = time.Now()
	res.Analysis = metrics.Analyze(res.Records)
	tr.analyze = time.Since(t)
	res.JoinedSessions = world.JoinedSessions
	res.FailedSessions = world.FailedSessions
	res.ReadySessions = world.ReadySessions
	res.AbandonSessions = world.AbandonSessions
	res.Adaptations = world.Adaptations

	prefix := filepath.Join(dir, "traced")
	t = time.Now()
	figs := renderFigures(res, false)
	tr.figures = time.Since(t)
	if err := writeFigures(prefix+".figures.txt", figs); err != nil {
		return nil, err
	}
	t = time.Now()
	if err := writeLog(prefix+".log", res.Records); err != nil {
		return nil, err
	}
	tr.encode = time.Since(t)
	t = time.Now()
	if err := writeJSONL(prefix+".jsonl", res.Records); err != nil {
		return nil, err
	}
	tr.jsonl = time.Since(t)
	if err := writeSessions(prefix+".sessions.csv", res); err != nil {
		return nil, err
	}
	tr.total = time.Since(start)
	return tr, nil
}

// phaseSum is the metered tick-phase time.
func phaseSum(p peer.PhaseNanos) time.Duration {
	return time.Duration(p.Allocate + p.Advance + p.Playback + p.Account + p.Control + p.Drain + p.Merge)
}

// checkDigests reports every digest in got that differs from want.
func checkDigests(rep *report, what string, want uint64, got []uint64) int {
	bad := 0
	for i, d := range got {
		if d != want {
			bad++
			rep.check(false, fmt.Sprintf("%s %d: digest %016x, want %016x", what, i, d, want))
		}
	}
	return bad
}

// repeat runs fn at least minReps times and then while another run of
// the last run's length still fits in the window, collecting garbage
// before each run so no run pays for its predecessor's.
func repeat(window time.Duration, minReps int, fn func() (time.Duration, error)) error {
	start := time.Now()
	var last time.Duration
	for i := 0; i < minReps || time.Since(start)+last <= window; i++ {
		runtime.GC()
		d, err := fn()
		if err != nil {
			return err
		}
		last = d
	}
	return nil
}

// runPaperDay is the paper-day workload.
func runPaperDay(opts options) (*report, error) {
	rep := newReport()
	cfg := dayConfig(opts.seed, opts.tiny)
	minReps := 3
	if opts.tiny {
		minReps = 1
	}

	// Set-up is a tiny warm-up day, a few tens of milliseconds: seven of
	// them keep its median steady.
	var setups []time.Duration
	for i := 0; i < 7; i++ {
		t := time.Now()
		if _, err := dayPipeline(dayConfig(opts.seed, true), opts.dir); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t))
	}

	if !opts.trace {
		var wall, cpu, alloc []float64
		var digests []uint64
		err := repeat(opts.window, minReps, func() (time.Duration, error) {
			m0, c0, t0 := readMem(), cpuTime(), time.Now()
			res, err := dayPipeline(cfg, opts.dir)
			d := time.Since(t0)
			if err != nil {
				return d, err
			}
			cpu = append(cpu, ms(cpuTime()-c0))
			alloc = append(alloc, m0.allocKB(readMem()))
			wall = append(wall, ms(d))
			digests = append(digests, res.Digest())
			rep.check(res.ReadySessions > 0 && len(res.Records) > 0, "the day produced no ready session")
			return d, nil
		})
		if err != nil {
			return nil, err
		}
		rep.Attempted = int64(len(digests))
		rep.Failed = int64(checkDigests(rep, "untraced run", digests[0], digests))
		rep.set("setup_s", "s", medianDur(setups))
		rep.set("latency_ms", "ms", median(wall))
		rep.set("cpu_ms", "ms", median(cpu))
		rep.set("alloc_kb", "KB", median(alloc))
		rep.set("peak_rss_mb", "MB", peakRSSMB())
		return rep, nil
	}

	// Traced: untraced and traced days alternate, so the tracing
	// overhead compares medians taken over the same stretch of time.
	// The first untraced day is the digest reference.
	var ref *core.Result
	var untraced []float64
	var traces []*dayTrace
	var digests []uint64
	var cpuUtil, gcCycles, gcPause []float64
	err := repeat(opts.window, minReps+1, func() (time.Duration, error) {
		if len(untraced) <= len(traces) {
			t0 := time.Now()
			res, err := dayPipeline(cfg, opts.dir)
			d := time.Since(t0)
			if err != nil {
				return d, err
			}
			if ref == nil {
				ref = res
			}
			untraced = append(untraced, ms(d))
			digests = append(digests, res.Digest())
			return d, nil
		}
		m0, c0 := readMem(), cpuTime()
		tr, err := tracedDay(cfg, opts.dir)
		if err != nil {
			return 0, err
		}
		m1 := readMem()
		cpuUtil = append(cpuUtil, (cpuTime()-c0).Seconds()/tr.total.Seconds())
		gcCycles = append(gcCycles, float64(m1.numGC-m0.numGC))
		gcPause = append(gcPause, float64(m1.pauseNs-m0.pauseNs)/1e6)
		traces = append(traces, tr)
		digests = append(digests, tr.res.Digest())
		return tr.total, nil
	})
	if err != nil {
		return nil, err
	}
	rep.Attempted = int64(len(digests))
	rep.Failed = int64(checkDigests(rep, "untraced or traced run", ref.Digest(), digests))
	rep.Env["digest"] = fmt.Sprintf("%016x", ref.Digest())

	med := func(f func(*dayTrace) float64) float64 {
		xs := make([]float64, len(traces))
		for i, tr := range traces {
			xs[i] = f(tr)
		}
		return median(xs)
	}
	sec := func(d time.Duration) float64 { return d.Seconds() }
	rep.set("workload.generate_s", "s", med(func(t *dayTrace) float64 { return sec(t.generate) }))
	rep.set("workload.arrivals", "count", float64(len(ref.Scenario.Specs)))
	rep.set("sim.ticks", "count", med(func(t *dayTrace) float64 { return float64(len(t.tickMs)) }))
	rep.set("sim.tick_ms_p50", "ms", med(func(t *dayTrace) float64 { return percentile(t.tickMs, 0.5, 0) }))
	rep.set("sim.tick_ms_p99", "ms", med(func(t *dayTrace) float64 { return percentile(t.tickMs, 0.99, 0) }))
	phase := func(f func(peer.PhaseNanos) int64) float64 {
		return med(func(t *dayTrace) float64 { return float64(f(t.phases)) / 1e9 })
	}
	rep.set("peer.allocate_s", "s", phase(func(p peer.PhaseNanos) int64 { return p.Allocate }))
	rep.set("peer.advance_s", "s", phase(func(p peer.PhaseNanos) int64 { return p.Advance }))
	rep.set("peer.playback_s", "s", phase(func(p peer.PhaseNanos) int64 { return p.Playback }))
	rep.set("peer.account_s", "s", phase(func(p peer.PhaseNanos) int64 { return p.Account }))
	rep.set("peer.control_s", "s", phase(func(p peer.PhaseNanos) int64 { return p.Control }))
	rep.set("peer.events_s", "s", med(func(t *dayTrace) float64 { return sec(t.run - phaseSum(t.phases) - t.snapshot) }))
	rep.set("peer.snapshot_s", "s", med(func(t *dayTrace) float64 { return sec(t.snapshot) }))
	rep.set("peer.peak_active", "count", float64(ref.PeakConcurrent))
	rep.set("peer.sessions_ready", "count", float64(ref.ReadySessions))
	rep.set("peer.adaptations", "count", float64(ref.Adaptations))
	rep.set("logsys.records", "count", float64(len(ref.Records)))
	rep.set("logsys.drain_s", "s", med(func(t *dayTrace) float64 { return sec(t.drain) }))
	rep.set("logsys.encode_s", "s", med(func(t *dayTrace) float64 { return sec(t.encode) }))
	rep.set("trace.write_jsonl_s", "s", med(func(t *dayTrace) float64 { return sec(t.jsonl) }))
	rep.set("metrics.analyze_s", "s", med(func(t *dayTrace) float64 { return sec(t.analyze) }))
	rep.set("core.figures_s", "s", med(func(t *dayTrace) float64 { return sec(t.figures) }))
	rep.set("proc.cpu_util", "cores", median(cpuUtil))
	rep.set("go.goroutines_peak", "count", med(func(t *dayTrace) float64 { return float64(t.goroutines) }))
	rep.set("go.gc_cycles", "count", median(gcCycles))
	rep.set("go.gc_pause_ms", "ms", median(gcPause))
	rep.set("bench.trace_overhead_latency_ms", "ms", med(func(t *dayTrace) float64 { return ms(t.total) })-median(untraced))
	return rep, nil
}
