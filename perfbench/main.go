// Command perfbench is the repository's benchmark: one command that
// measures the three stacks end to end and, in a separate traced run,
// layer by layer.
//
//	perfbench --workload paper-day  --seed 1 --seconds 30 --trace 0
//	perfbench --workload log-replay --seed 1 --seconds 30 --trace 1
//	perfbench --workload live-swarm --seed 1 --seconds 30 --trace 0
//
// paper-day runs the coolsim pipeline on a compressed broadcast day;
// log-replay re-analyses that day's log in both on-disk formats, as
// coolanalyze does; live-swarm streams over real TCP on loopback while
// joiners arrive. With --trace 0 the last stdout line carries the
// end-to-end metrics, each for the workload's own operation; with
// --trace 1 it carries the per-layer metrics, 0 for a layer the
// workload never calls (README.md maps each to the end-to-end metric
// it should move). The
// line before it is the result envelope: machine, toolchain, seed and
// workload settings. A failed correctness check exits 1.
//
// Only default code paths are driven: no A/B fork of the engine or the
// data plane is set anywhere in this package.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// options are one run's settings.
type options struct {
	seed   uint64
	window time.Duration
	trace  bool
	// dir is the scratch directory for written artifacts.
	dir string
	// tiny shrinks every workload to a few seconds of work, for the
	// benchmark's own tests.
	tiny bool
}

var workloads = map[string]func(options) (*report, error){
	paperDay:  runPaperDay,
	logReplay: runLogReplay,
	liveSwarm: runLiveSwarm,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "paper-day | log-replay | live-swarm")
		seed    = fs.Uint64("seed", 1, "input seed")
		seconds = fs.Int("seconds", 30, "measured window in seconds")
		trace   = fs.Int("trace", 0, "1 reports per-layer metrics from a traced run")
		dir     = fs.String("dir", filepath.Join(".bench_build", "perfbench-out"), "scratch directory for artifacts")
		tiny    = fs.Bool("tiny", false, "shrink every workload (self-test size)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload paper-day|log-replay|live-swarm, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	opts := options{
		seed: *seed, window: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, dir: filepath.Join(*dir, *name), tiny: *tiny,
	}
	if err := os.MkdirAll(opts.dir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	rep, err := fn(opts)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	for _, f := range rep.Failures {
		fmt.Fprintf(stderr, "perfbench: %s: check failed: %s\n", *name, f)
	}
	if len(rep.Failures) == 0 {
		if err := rep.complete(*name, opts.trace); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
			return 1
		}
	}
	env := envelope(opts, *name)
	for k, v := range rep.Env {
		env[k] = v
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]any{"envelope": env}); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := enc.Encode(map[string]any{
		"correct":   len(rep.Failures) == 0,
		"attempted": rep.Attempted,
		"failed":    rep.Failed,
		"metrics":   rep.Metrics,
	}); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if len(rep.Failures) > 0 {
		return 1
	}
	return 0
}

// envelope describes where and how a result was measured.
func envelope(opts options, name string) map[string]any {
	return map[string]any{
		"workload":   name,
		"seed":       opts.seed,
		"seconds":    opts.window.Seconds(),
		"trace":      opts.trace,
		"commit":     commit(),
		"go_version": runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu_model":  cpuModel(),
	}
}

// commit reads the checked-out revision from .git in the working
// directory without running git; a checkout without .git reports
// "unknown".
func commit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
			return hash
		}
	}
	return "unknown"
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
