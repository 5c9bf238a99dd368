package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what one workload run produces: the result line plus the
// descriptions of every correctness check that failed.
type report struct {
	Attempted int64
	Failed    int64
	Metrics   map[string]metric
	// Env holds workload-specific envelope fields (e.g. the latency
	// poll interval) printed beside the machine description.
	Env      map[string]any
	Failures []string
}

func newReport() *report {
	return &report{Metrics: map[string]metric{}, Env: map[string]any{}}
}

func (r *report) set(name, unit string, v float64) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// Workload names.
const (
	paperDay  = "paper-day"
	logReplay = "log-replay"
	liveSwarm = "live-swarm"
)

// declaredMetric is one metric BENCHMARK.json declares. on names the
// workloads whose calls it times; nil means every workload.
type declaredMetric struct {
	name, unit string
	on         []string
}

var (
	onDay    = []string{paperDay}
	onFluid  = []string{paperDay, logReplay}
	onReplay = []string{logReplay}
	onLive   = []string{liveSwarm}
)

// endToEnd are the --trace 0 metrics. Every workload reports each of
// them for its own operation: a paper day, a replay of the day's log
// from both formats, a block delivered over the live swarm.
var endToEnd = []declaredMetric{
	{"setup_s", "s", nil},
	{"latency_ms", "ms", nil},
	{"cpu_ms", "ms", nil},
	{"alloc_kb", "KB", nil},
	{"peak_rss_mb", "MB", nil},
}

// perLayer are the --trace 1 metrics. A workload reports 0 for a layer
// it never calls.
var perLayer = []declaredMetric{
	{"workload.generate_s", "s", onDay},
	{"workload.arrivals", "count", onDay},
	{"sim.ticks", "count", onDay},
	{"sim.tick_ms_p50", "ms", onDay},
	{"sim.tick_ms_p99", "ms", onDay},
	{"peer.allocate_s", "s", onDay},
	{"peer.advance_s", "s", onDay},
	{"peer.playback_s", "s", onDay},
	{"peer.account_s", "s", onDay},
	{"peer.control_s", "s", onDay},
	{"peer.events_s", "s", onDay},
	{"peer.snapshot_s", "s", onDay},
	{"peer.peak_active", "count", onDay},
	{"peer.sessions_ready", "count", onDay},
	{"peer.adaptations", "count", onDay},
	{"logsys.records", "count", onFluid},
	{"logsys.drain_s", "s", onDay},
	{"logsys.encode_s", "s", onDay},
	{"logsys.scan_s", "s", onReplay},
	{"logsys.bytes_per_record", "B", onReplay},
	{"trace.write_jsonl_s", "s", onDay},
	{"trace.read_jsonl_s", "s", onReplay},
	{"metrics.analyze_s", "s", onDay},
	{"metrics.feed_s", "s", onReplay},
	{"metrics.finish_s", "s", onReplay},
	{"core.figures_s", "s", onFluid},
	{"netboot.register_ms_p50", "ms", onLive},
	{"netboot.candidates_ms_p50", "ms", onLive},
	{"netboot.candidates_ms_p99", "ms", onLive},
	{"netboot.leave_ms_p50", "ms", onLive},
	{"netboot.calls", "count", onLive},
	{"netboot.unavailable", "count", onLive},
	{"netboot.shed", "count", onLive},
	{"netpeer.join_success", "ratio", onLive},
	{"netpeer.ttfb_p50_ms", "ms", onLive},
	{"netpeer.ttfb_p90_ms", "ms", onLive},
	{"netpeer.join_ms_p50", "ms", onLive},
	{"netpeer.time_to_partner_ms_p50", "ms", onLive},
	{"netpeer.join_retries_p90", "count", onLive},
	{"netpeer.rejects", "count", onLive},
	{"netpeer.lane_retries", "count", onLive},
	{"netpeer.continuity_min", "ratio", onLive},
	{"netpeer.blocks_delivered", "count", onLive},
	{"netpeer.wire_bytes_per_block", "B", onLive},
	{"netpeer.writes_per_block", "ratio", onLive},
	{"netpeer.frames_per_write", "ratio", onLive},
	{"netpeer.bm_bytes_per_peer_s", "B/s", onLive},
	{"netpeer.fan_shared_frac", "ratio", onLive},
	{"netpeer.latency_d1_p50_ms", "ms", onLive},
	{"netpeer.latency_d2_p50_ms", "ms", onLive},
	{"netpeer.latency_p99_ms", "ms", onLive},
	{"netpeer.slow_partner_teardowns", "count", onLive},
	{"netpeer.pusher_aborts", "count", onLive},
	{"netpeer.handshakes_shed", "count", onLive},
	{"proc.cpu_util", "cores", nil},
	{"go.goroutines_peak", "count", nil},
	{"go.gc_cycles", "count", nil},
	{"go.gc_pause_ms", "ms", nil},
	{"bench.gen_late_ms_p99", "ms", onLive},
	{"bench.poll_cpu_share", "ratio", onLive},
	{"bench.trace_overhead_latency_ms", "ms", nil},
}

// complete checks that a workload reported exactly the declared
// metrics it measures, each in its declared unit, and reports 0 for
// every layer the workload never calls, so that each result line holds
// every declared metric.
func (r *report) complete(workload string, traced bool) error {
	decl := endToEnd
	if traced {
		decl = perLayer
	}
	known := map[string]bool{}
	for _, d := range decl {
		known[d.name] = true
		runs := d.on == nil
		for _, w := range d.on {
			runs = runs || w == workload
		}
		m, ok := r.Metrics[d.name]
		switch {
		case !runs && ok:
			return fmt.Errorf("reports %s, which it does not measure", d.name)
		case !runs:
			r.set(d.name, d.unit, 0)
		case !ok:
			return fmt.Errorf("does not report %s", d.name)
		case m.Unit != d.unit:
			return fmt.Errorf("reports %s in %s, declared in %s", d.name, m.Unit, d.unit)
		}
	}
	for name := range r.Metrics {
		if !known[name] {
			return fmt.Errorf("reports undeclared metric %s", name)
		}
	}
	return nil
}

// check records a failed correctness check when ok is false.
func (r *report) check(ok bool, msg string) {
	if !ok {
		r.Failures = append(r.Failures, msg)
	}
}

// missing marks a sample that never completed (a failed join, a block
// never seen before its deadline). It sorts after every real sample,
// so a failed operation counts as missing every percentile it belongs
// to.
var missing = math.Inf(1)

// percentile returns the q-quantile of xs by linear interpolation
// between closest ranks (xs is sorted in place). A quantile that falls
// on missing samples reads as ceil, the value callers use for "never".
func percentile(xs []float64, q, ceil float64) float64 {
	if len(xs) == 0 {
		return ceil
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if math.IsInf(xs[hi], 1) {
		return ceil
	}
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 0.5, missing) }

func medianDur(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return median(xs)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rusageThread is Linux's RUSAGE_THREAD: CPU time of the calling OS
// thread only, which the latency poller reads on its locked thread.
const rusageThread = 1

func threadCPUTime() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(rusageThread, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// resetPeakRSS returns the freed heap to the OS and then resets the
// process's peak resident set to its current one (Linux's
// /proc/self/clear_refs "5"), so that a later peakRSSMB reports the
// peak of what runs after the call, not of the set-up before it.
func resetPeakRSS() error {
	runtime.GC()
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// memSample is the slice of runtime.MemStats the benchmark reports.
type memSample struct {
	totalAlloc uint64
	numGC      uint32
	pauseNs    uint64
}

func readMem() memSample {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memSample{totalAlloc: m.TotalAlloc, numGC: m.NumGC, pauseNs: m.PauseTotalNs}
}

func (a memSample) allocKB(b memSample) float64 { return float64(b.totalAlloc-a.totalAlloc) / 1e3 }

// setGCMetrics reports the garbage collector's work between a and b.
func (r *report) setGCMetrics(a, b memSample) {
	r.set("go.gc_cycles", "count", float64(b.numGC-a.numGC))
	r.set("go.gc_pause_ms", "ms", float64(b.pauseNs-a.pauseNs)/1e6)
}
