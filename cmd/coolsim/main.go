// Command coolsim runs one Coolstreaming simulation scenario and
// writes its artifacts: the raw log (the paper's log-server file
// format), a JSONL record dump for re-analysis, and the
// concurrent-sessions series.
//
// Usage:
//
//	coolsim -scenario day -day 30m -rate 0.5 -seed 7 -out run1
//	coolsim -scenario flash -seed 3 -out burst
//	coolsim -scenario steady -rate 0.4 -horizon 10m -out steady
//
// Outputs <out>.log (log strings), <out>.jsonl (records),
// <out>.sessions.csv (Fig. 5 series), plus a summary on stdout.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"coolstream/internal/core"
	"coolstream/internal/logsys"
	"coolstream/internal/metrics"
	"coolstream/internal/profiling"
	"coolstream/internal/sim"
	"coolstream/internal/trace"
	"coolstream/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "coolsim:", err)
		os.Exit(1)
	}
}

func run() (err error) {
	var (
		scenario = flag.String("scenario", "steady", "scenario: steady | day | flash | chaos")
		day      = flag.Duration("day", 30*time.Minute, "compressed day length (day scenario)")
		rate     = flag.Float64("rate", 0.4, "arrival rate per second (steady) or diurnal base rate (day)")
		horizon  = flag.Duration("horizon", 10*time.Minute, "workload horizon (steady scenario)")
		burst    = flag.Float64("burst", 4, "burst arrival rate per second (flash scenario)")
		seed     = flag.Uint64("seed", 1, "random seed")
		servers  = flag.Int("servers", 6, "dedicated server count")
		policy   = flag.String("mcache", "random", "mCache policy: random | stability")
		alloc    = flag.String("allocator", "waterfill", "upload allocator: waterfill | equalsplit")
		selPol   = flag.String("select", "random", "parent selection: random | freshest")
		loss     = flag.Float64("loss", 0, "control-plane message loss probability")
		crash    = flag.Float64("crash", 0.3, "fraction of ungraceful departures")
		out      = flag.String("out", "run", "output file prefix")
		artDir   = flag.String("artifacts", "", "also write the full artifact set (CSV series, figure tables) into this directory")
		loadScen = flag.String("load-scenario", "", "run a scenario file (workload.WriteScenario format) instead of generating arrivals")
		saveScen = flag.String("save-scenario", "", "save the run's materialised scenario to this file")
		quiet    = flag.Bool("q", false, "suppress figure tables on stdout")
		digest   = flag.Bool("digest", false, "print the run digest (reproducibility check)")
		shards   = flag.Int("shards", 1, "world shards for parallel control (1 = legacy engine, 0 = one per core)")
		deferCtl = flag.Bool("defer-control", false, "force the deferred-effect control serialization at one shard (A/B hook: digest must equal any -shards N run)")
	)
	var prof profiling.Flags
	prof.Register(flag.CommandLine)
	flag.Parse()
	stopProf, err := prof.Start()
	if err != nil {
		return err
	}
	defer func() {
		if e := stopProf(); e != nil && err == nil {
			err = e
		}
	}()

	var cfg core.Config
	switch *scenario {
	case "steady":
		cfg = core.SteadyConfig(*rate, sim.Time((*horizon).Milliseconds()), *seed)
	case "day":
		cfg = core.DayConfig(sim.Time((*day).Milliseconds()), *rate, *seed)
	case "flash":
		cfg = core.FlashCrowdConfig(3*sim.Minute, sim.Minute, 0.15, *burst, *seed)
	case "chaos":
		cfg = core.ChaosConfig(*seed)
	default:
		return fmt.Errorf("unknown scenario %q", *scenario)
	}
	cfg.Servers = *servers
	cfg.MCachePolicy = *policy
	cfg.Params.Allocator = *alloc
	cfg.Params.ParentSelection = *selPol
	cfg.Params.ControlLossProb = *loss
	cfg.CrashProb = *crash
	cfg.Shards = *shards
	if cfg.Shards == 0 {
		cfg.Shards = runtime.GOMAXPROCS(0)
	}
	cfg.DeferControl = *deferCtl
	// Phase labels only pay off when a CPU profile is actually being
	// captured; auto-enable them with -cpuprofile so `go tool pprof
	// -tagfocus phase=...` works out of the box.
	cfg.LabelPhases = prof.CPUProfile != ""
	if *loadScen != "" {
		f, err := os.Open(*loadScen)
		if err != nil {
			return err
		}
		sc, err := workload.ReadScenario(f)
		f.Close()
		if err != nil {
			return err
		}
		cfg.PresetScenario = &sc
	}
	// Short runs need status reports more often than the deployed five
	// minutes to produce any QoS/traffic data at all. Use the effective
	// horizon so a replayed scenario gets the same cadence as the run
	// that produced it.
	effHorizon := cfg.Workload.Horizon
	if cfg.PresetScenario != nil {
		effHorizon = cfg.PresetScenario.Horizon
	}
	if rp := effHorizon / 8; rp < cfg.Params.ReportPeriod {
		cfg.Params.ReportPeriod = rp
		if cfg.Params.ReportPeriod < 10*sim.Second {
			cfg.Params.ReportPeriod = 10 * sim.Second
		}
	}

	start := time.Now()
	res, err := core.Run(cfg)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	if *saveScen != "" {
		f, err := os.Create(*saveScen)
		if err != nil {
			return err
		}
		if err := workload.WriteScenario(f, res.Scenario); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("scenario saved to %s\n", *saveScen)
	}

	// Artifacts.
	logFile, err := os.Create(*out + ".log")
	if err != nil {
		return err
	}
	sinkW := logsys.NewWriterSink(logFile)
	for _, rec := range res.Records {
		sinkW.Log(rec)
	}
	if err := sinkW.Err(); err != nil {
		logFile.Close()
		return err
	}
	if err := logFile.Close(); err != nil {
		return err
	}
	jsonFile, err := os.Create(*out + ".jsonl")
	if err != nil {
		return err
	}
	if err := trace.WriteRecords(jsonFile, res.Records); err != nil {
		jsonFile.Close()
		return err
	}
	if err := jsonFile.Close(); err != nil {
		return err
	}
	csvFile, err := os.Create(*out + ".sessions.csv")
	if err != nil {
		return err
	}
	series := res.Analysis.Concurrency(10*sim.Second, res.Horizon())
	if err := trace.WriteSeries(csvFile, "sessions", series); err != nil {
		csvFile.Close()
		return err
	}
	if err := csvFile.Close(); err != nil {
		return err
	}

	fmt.Printf("simulated %v of virtual time in %v wall (%d records)\n",
		res.Horizon().Duration(), elapsed.Round(time.Millisecond), len(res.Records))
	metrics.ASCIIPlot(os.Stdout, "concurrent sessions",
		res.Analysis.Concurrency(res.Horizon()/200, res.Horizon()), 72, 10)
	res.Summary().Render(os.Stdout)
	if !*quiet {
		res.Fig6().Render(os.Stdout)
		res.Fig8(30 * sim.Second).Render(os.Stdout)
		if *scenario == "chaos" {
			res.Fig10c().Render(os.Stdout)
		}
	}
	if *digest {
		fmt.Printf("digest %016x\n", res.Digest())
	}
	fmt.Printf("artifacts: %s.log %s.jsonl %s.sessions.csv\n", *out, *out, *out)
	if *artDir != "" {
		if err := res.WriteArtifacts(*artDir); err != nil {
			return err
		}
		fmt.Printf("full artifact set in %s/\n", *artDir)
	}
	return nil
}
