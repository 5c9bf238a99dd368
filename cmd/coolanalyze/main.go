// Command coolanalyze re-analyses a stored run without re-simulating:
// it streams a log file (either the raw log-string format written by
// the log server / coolsim, or the JSONL record dump) record by record
// into the analyzer, holding per-session state rather than the whole
// log in memory, and prints the paper's measurement tables.
//
// Usage:
//
//	coolanalyze -in run1.log -horizon 35m
//	coolanalyze -in run1.jsonl -format jsonl -csv
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"coolstream/internal/logsys"
	"coolstream/internal/metrics"
	"coolstream/internal/netmodel"
	"coolstream/internal/sim"
	"coolstream/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "coolanalyze:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		in      = flag.String("in", "", "input file (required)")
		format  = flag.String("format", "auto", "input format: log | jsonl | auto")
		horizon = flag.Duration("horizon", 0, "analysis horizon (default: last record time)")
		bucket  = flag.Duration("bucket", 30*time.Second, "time bucket for series")
		asCSV   = flag.Bool("csv", false, "emit CSV instead of aligned tables")
	)
	flag.Parse()
	if *in == "" {
		return fmt.Errorf("-in is required")
	}
	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()

	fm := *format
	if fm == "auto" {
		if strings.HasSuffix(*in, ".jsonl") {
			fm = "jsonl"
		} else {
			fm = "log"
		}
	}
	// Both formats stream: records flow straight from the scanner into
	// the sessionizer, so a multi-gigabyte log never materializes as a
	// []Record. The horizon default (last record time) and the
	// emptiness check ride along on the same pass.
	var (
		count int
		maxAt sim.Time
	)
	an := metrics.NewAnalyzer(0)
	feed := func(rec logsys.Record) error {
		count++
		if rec.At > maxAt {
			maxAt = rec.At
		}
		an.Feed(rec)
		return nil
	}
	switch fm {
	case "log":
		err = logsys.ScanLog(f, feed)
	case "jsonl":
		err = trace.ScanRecords(f, feed)
	default:
		return fmt.Errorf("unknown format %q", fm)
	}
	if err != nil {
		return err
	}
	if count == 0 {
		return fmt.Errorf("no records in %s", *in)
	}

	h := sim.Time((*horizon).Milliseconds())
	if h <= 0 {
		h = maxAt + sim.Minute
	}
	bkt := sim.Time((*bucket).Milliseconds())

	a := an.Finish()
	render := func(t *metrics.Table) {
		if *asCSV {
			t.RenderCSV(os.Stdout)
		} else {
			t.Render(os.Stdout)
		}
		fmt.Println()
	}

	// Session summary.
	sum := &metrics.Table{Title: "sessions", Header: []string{"metric", "value"}}
	sum.AddRowf("sessions\t%d", len(a.Sessions))
	ready := 0
	for _, s := range a.Sessions {
		if s.Ready() {
			ready++
		}
	}
	sum.AddRowf("ready_sessions\t%d", ready)
	sum.AddRowf("mean_continuity\t%.4f", a.MeanContinuity())
	sum.AddRowf("short(<1min)_frac\t%.4f", a.ShortSessionFraction(sim.Minute))
	render(sum)

	// Fig. 3.
	dist := a.ClassDistribution()
	fig3 := &metrics.Table{Title: "Fig. 3a — user types (inferred)", Header: []string{"class", "fraction"}}
	for c := netmodel.UserClass(0); c < netmodel.NumClasses; c++ {
		fig3.AddRowf("%s\t%.3f", c.String(), dist[c])
	}
	if acc := a.ClassifierAccuracy(); acc > 0 {
		fig3.AddRowf("classifier_accuracy\t%.3f", acc)
	}
	render(fig3)

	rep := a.Contribution()
	fig3b := &metrics.Table{Title: "Fig. 3b — upload contribution", Header: []string{"metric", "value"}}
	fig3b.AddRowf("reachable_pop_frac\t%.3f", rep.ReachablePopulation)
	fig3b.AddRowf("reachable_upload_share\t%.3f", rep.ReachableShare)
	fig3b.AddRowf("top30_upload_share\t%.3f", rep.Top30Share)
	fig3b.AddRowf("gini\t%.3f", rep.Gini)
	render(fig3b)

	// Fig. 5.
	fig5 := &metrics.Table{Title: "Fig. 5 — concurrency", Header: []string{"t", "sessions"}}
	for _, p := range a.Concurrency(bkt, h) {
		fig5.AddRowf("%s\t%.0f", p.At.String(), p.Value)
	}
	render(fig5)

	// Fig. 6.
	sub, rdy, diff := a.StartupDelays()
	fig6 := &metrics.Table{Title: "Fig. 6 — startup delays (s)", Header: []string{"quantile", "startsub", "ready", "difference"}}
	if rdy.N() > 0 && sub.N() > 0 && diff.N() > 0 {
		for _, q := range []float64{0.25, 0.5, 0.75, 0.9} {
			fig6.AddRowf("p%02.0f\t%.2f\t%.2f\t%.2f", q*100, sub.Quantile(q), rdy.Quantile(q), diff.Quantile(q))
		}
	}
	render(fig6)

	// Fig. 8.
	means := a.MeanContinuityByClass()
	fig8 := &metrics.Table{Title: "Fig. 8 — continuity by class", Header: []string{"class", "mean_ci"}}
	for c := netmodel.UserClass(0); c < netmodel.NumClasses; c++ {
		fig8.AddRowf("%s\t%.4f", c.String(), means[c])
	}
	render(fig8)

	// Fig. 10b.
	fig10b := &metrics.Table{Title: "Fig. 10b — retries", Header: []string{"failures_before_success", "frac_users"}}
	for k, v := range a.RetryDistribution(5) {
		fig10b.AddRowf("%d\t%.4f", k, v)
	}
	render(fig10b)
	return nil
}
