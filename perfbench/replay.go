package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"coolstream/internal/core"
	"coolstream/internal/logsys"
	"coolstream/internal/metrics"
	"coolstream/internal/netmodel"
	"coolstream/internal/trace"
)

// replayRef is what a replay of the day's log must reproduce: the
// in-process analysis of the run that wrote it.
type replayRef struct {
	records   int
	sessions  int
	ready     int
	meanCI    float64
	classCI   [netmodel.NumClasses]float64
	figures   []byte
	cfg       core.Config
	logPath   string
	jsonlPath string
}

func refOf(res *core.Result, logPath, jsonlPath string) *replayRef {
	ref := &replayRef{
		records: len(res.Records), cfg: res.Config,
		figures: renderFigures(res, true), logPath: logPath, jsonlPath: jsonlPath,
	}
	ref.sessions, ref.ready, ref.meanCI, ref.classCI = sessionSummary(res.Analysis)
	return ref
}

func sessionSummary(a *metrics.Analysis) (sessions, ready int, mean float64, byClass [netmodel.NumClasses]float64) {
	for _, s := range a.Sessions {
		if s.Ready() {
			ready++
		}
	}
	return len(a.Sessions), ready, a.MeanContinuity(), a.MeanContinuityByClass()
}

// replayOut is one replay of one format.
type replayOut struct {
	records int
	// read is the time trace.ReadRecords spent reading and parsing the
	// .jsonl, feed the time in Analyzer.Feed, finish in
	// Analyzer.Finish, figures in the tables.
	total, read, feed, finish, figures time.Duration
	goroutines                         int
	analysis                           *metrics.Analysis
	figs                               []byte
}

// replay re-analyses one stored log like coolanalyze: the .log format
// streams through logsys.ScanLog, the .jsonl format is read whole by
// trace.ReadRecords; both feed a metrics.Analyzer and end in the
// log-derived figure tables. timed splits the wall time by step, at
// the cost of two clock reads per .log record; the .log parse alone is
// timed by scanLog.
func replay(ref *replayRef, jsonl, timed bool) (*replayOut, error) {
	out := &replayOut{}
	start := time.Now()
	path := ref.logPath
	if jsonl {
		path = ref.jsonlPath
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	an := metrics.NewAnalyzer(0)
	feed := func(rec logsys.Record) error {
		out.records++
		if timed {
			if out.records%4096 == 1 {
				out.goroutines = max(out.goroutines, runtime.NumGoroutine())
			}
			t := time.Now()
			an.Feed(rec)
			out.feed += time.Since(t)
			return nil
		}
		an.Feed(rec)
		return nil
	}
	if jsonl {
		recs, err := trace.ReadRecords(f)
		if err != nil {
			return nil, err
		}
		out.read = time.Since(start)
		t := time.Now()
		for _, rec := range recs {
			feed(rec)
		}
		if timed {
			out.feed = time.Since(t)
		}
	} else {
		if err := logsys.ScanLog(f, feed); err != nil {
			return nil, err
		}
	}
	t := time.Now()
	out.analysis = an.Finish()
	out.finish = time.Since(t)
	t = time.Now()
	out.figs = renderFigures(&core.Result{Config: ref.cfg, Analysis: out.analysis}, true)
	out.figures = time.Since(t)
	out.total = time.Since(start)
	return out, nil
}

// scanLog parses the stored .log through logsys.ScanLog with a callback
// that only counts records: the parser's own time, with no clock read
// per record charged to it.
func scanLog(path string) (time.Duration, int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	n := 0
	t := time.Now()
	err = logsys.ScanLog(f, func(logsys.Record) error { n++; return nil })
	return time.Since(t), n, err
}

// checkReplay reports every way a replay differs from the analysis of
// the run that wrote the log.
func checkReplay(rep *report, format string, ref *replayRef, got *replayOut) bool {
	ok := true
	fail := func(msg string, args ...any) {
		ok = false
		rep.check(false, format+": "+fmt.Sprintf(msg, args...))
	}
	if got.records != ref.records {
		fail("%d records replayed, the run logged %d", got.records, ref.records)
	}
	sessions, ready, mean, byClass := sessionSummary(got.analysis)
	if sessions != ref.sessions || ready != ref.ready {
		fail("%d sessions / %d ready, want %d / %d", sessions, ready, ref.sessions, ref.ready)
	}
	// JSON round-trips float64 exactly; the log format stores floats at
	// six decimals, so its continuity means may differ from the
	// in-process ones by the rounding of the stored reports.
	tol := 0.0
	if format == "log" {
		tol = 1e-6
	}
	if math.Abs(mean-ref.meanCI) > tol {
		fail("mean continuity %.9f, want %.9f", mean, ref.meanCI)
	}
	for c := range byClass {
		if math.Abs(byClass[c]-ref.classCI[c]) > tol {
			fail("class %v continuity %.9f, want %.9f", netmodel.UserClass(c), byClass[c], ref.classCI[c])
		}
	}
	if !bytes.Equal(got.figs, ref.figures) {
		fail("figure tables differ from the in-process analysis")
	}
	return ok
}

// setupReplay runs the day and writes its log in both formats.
func setupReplay(cfg core.Config, dir string) (*replayRef, uint64, error) {
	res, err := core.Run(cfg)
	if err != nil {
		return nil, 0, err
	}
	logPath, jsonlPath := filepath.Join(dir, "day.log"), filepath.Join(dir, "day.jsonl")
	if err := writeLog(logPath, res.Records); err != nil {
		return nil, 0, err
	}
	if err := writeJSONL(jsonlPath, res.Records); err != nil {
		return nil, 0, err
	}
	// Flush both files to disk here, so that the kernel's write-back
	// of them does not run during the timed replays.
	for _, p := range []string{logPath, jsonlPath} {
		if err := syncFile(p); err != nil {
			return nil, 0, err
		}
	}
	return refOf(res, logPath, jsonlPath), res.Digest(), nil
}

func syncFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}

// runLogReplay is the log-replay workload.
func runLogReplay(opts options) (*report, error) {
	rep := newReport()
	cfg := dayConfig(opts.seed, opts.tiny)
	var setups []time.Duration
	var digests []uint64
	var ref *replayRef
	for i := 0; i < 3; i++ {
		t := time.Now()
		r, d, err := setupReplay(cfg, opts.dir)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t))
		ref, digests = r, append(digests, d)
	}
	checkDigests(rep, "set-up run", digests[0], digests)
	// The set-up days hold far more memory than a replay does; without
	// this reset their peak would be log-replay's peak_rss_mb.
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	minReps := 3
	if opts.tiny {
		minReps = 1
	}

	// One repetition is the workload's operation: the day's log replayed
	// from the .log and then from the .jsonl. Every replayed record is an
	// attempted operation; a replay that fails its check fails all of its
	// records.
	type replays struct {
		logs, jsonls []*replayOut
		// wall, cpu and alloc are per repetition, both formats summed.
		wall, cpu, alloc []float64
		// scans are the timed repetitions' scanLog passes, in seconds.
		scans []float64
	}
	one := func(jsonl, timed bool) (out *replayOut, cpu time.Duration, allocKB float64, err error) {
		m0, c0 := readMem(), cpuTime()
		out, err = replay(ref, jsonl, timed)
		if err != nil {
			return nil, 0, 0, err
		}
		cpu, allocKB = cpuTime()-c0, m0.allocKB(readMem())
		format := "log"
		if jsonl {
			format = "jsonl"
		}
		rep.Attempted += int64(out.records)
		if !checkReplay(rep, format, ref, out) {
			rep.Failed += int64(out.records)
		}
		// Keep the timings only: retaining every analysis would grow the
		// heap with the repetition count.
		out.analysis, out.figs = nil, nil
		return out, cpu, allocKB, nil
	}
	do := func(dst *replays, timed bool) (time.Duration, error) {
		var wall, cpu time.Duration
		alloc := 0.0
		for _, jsonl := range []bool{false, true} {
			out, c, a, err := one(jsonl, timed)
			if err != nil {
				return 0, err
			}
			if jsonl {
				dst.jsonls = append(dst.jsonls, out)
			} else {
				dst.logs = append(dst.logs, out)
			}
			wall, cpu, alloc = wall+out.total, cpu+c, alloc+a
		}
		dst.wall = append(dst.wall, ms(wall))
		dst.cpu = append(dst.cpu, ms(cpu))
		dst.alloc = append(dst.alloc, alloc)
		total := wall
		if timed {
			d, n, err := scanLog(ref.logPath)
			if err != nil {
				return 0, err
			}
			rep.check(n == ref.records, fmt.Sprintf("log: scan counted %d records, the run logged %d", n, ref.records))
			dst.scans = append(dst.scans, d.Seconds())
			total += d
		}
		return total, nil
	}
	med := func(outs []*replayOut, f func(*replayOut) float64) float64 {
		xs := make([]float64, len(outs))
		for i, o := range outs {
			xs[i] = f(o)
		}
		return median(xs)
	}

	var plain replays
	if !opts.trace {
		if err := repeat(opts.window, minReps, func() (time.Duration, error) { return do(&plain, false) }); err != nil {
			return nil, err
		}
		rep.set("setup_s", "s", medianDur(setups))
		rep.set("latency_ms", "ms", median(plain.wall))
		rep.set("cpu_ms", "ms", median(plain.cpu))
		rep.set("alloc_kb", "KB", median(plain.alloc))
		rep.set("peak_rss_mb", "MB", peakRSSMB())
		return rep, nil
	}

	// Traced: untraced and timed repetitions alternate, so the tracing
	// overhead compares medians taken over the same stretch of time.
	var timed replays
	m0, c0, t0 := readMem(), cpuTime(), time.Now()
	err := repeat(opts.window, minReps+1, func() (time.Duration, error) {
		if len(plain.wall) <= len(timed.wall) {
			return do(&plain, false)
		}
		return do(&timed, true)
	})
	if err != nil {
		return nil, err
	}
	cpu, wall, m1 := cpuTime()-c0, time.Since(t0), readMem()
	sec := func(f func(*replayOut) time.Duration) func(*replayOut) float64 {
		return func(o *replayOut) float64 { return f(o).Seconds() }
	}
	feed := sec(func(o *replayOut) time.Duration { return o.feed })
	finish := sec(func(o *replayOut) time.Duration { return o.finish })
	figures := sec(func(o *replayOut) time.Duration { return o.figures })
	goroutines := func(o *replayOut) float64 { return float64(o.goroutines) }
	logSize := 0.0
	if st, err := os.Stat(ref.logPath); err == nil {
		logSize = float64(st.Size())
	}
	logs, jsonls := timed.logs, timed.jsonls
	rep.set("logsys.records", "count", float64(ref.records))
	rep.set("logsys.scan_s", "s", median(timed.scans))
	rep.set("logsys.bytes_per_record", "B", logSize/float64(ref.records))
	rep.set("trace.read_jsonl_s", "s", med(jsonls, sec(func(o *replayOut) time.Duration { return o.read })))
	rep.set("metrics.feed_s", "s", med(logs, feed)+med(jsonls, feed))
	rep.set("metrics.finish_s", "s", med(logs, finish)+med(jsonls, finish))
	rep.set("core.figures_s", "s", med(logs, figures)+med(jsonls, figures))
	rep.set("proc.cpu_util", "cores", cpu.Seconds()/wall.Seconds())
	rep.set("go.goroutines_peak", "count", math.Max(med(logs, goroutines), med(jsonls, goroutines)))
	rep.setGCMetrics(m0, m1)
	rep.set("bench.trace_overhead_latency_ms", "ms", median(timed.wall)-median(plain.wall))
	return rep, nil
}
