package core

import (
	"fmt"
	"os"
	"path/filepath"

	"coolstream/internal/logsys"
	"coolstream/internal/metrics"
	"coolstream/internal/sim"
	"coolstream/internal/trace"
)

// WriteArtifacts persists a run's full artifact set into dir
// (created if missing):
//
//	run.log              — log-server wire format, one log string per line
//	run.jsonl            — JSONL record dump for re-analysis
//	sessions.csv         — Fig. 5 concurrency series
//	joinrate.csv         — arrivals per second series
//	continuity_<c>.csv   — per-class Fig. 8 series
//	topology.csv         — Fig. 4 snapshot table (CSV form)
//	figures.txt          — every figure table, rendered
func (r *Result) WriteArtifacts(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	write := func(name string, fn func(f *os.File) error) error {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		if err := fn(f); err != nil {
			f.Close()
			return fmt.Errorf("core: artifact %s: %w", name, err)
		}
		return f.Close()
	}

	if err := write("run.log", func(f *os.File) error {
		sink := logsys.NewWriterSink(f)
		for _, rec := range r.Records {
			sink.Log(rec)
		}
		return sink.Err()
	}); err != nil {
		return err
	}
	if err := write("run.jsonl", func(f *os.File) error {
		return trace.WriteRecords(f, r.Records)
	}); err != nil {
		return err
	}
	bucket := r.Horizon() / 200
	if bucket < sim.Second {
		bucket = sim.Second
	}
	if err := write("sessions.csv", func(f *os.File) error {
		return trace.WriteSeries(f, "sessions", r.Analysis.Concurrency(bucket, r.Horizon()))
	}); err != nil {
		return err
	}
	if err := write("joinrate.csv", func(f *os.File) error {
		return trace.WriteSeries(f, "joins_per_s", r.Analysis.JoinRate(bucket, r.Horizon()))
	}); err != nil {
		return err
	}
	series := r.Fig8Series(bucket)
	for c, pts := range series {
		if len(pts) == 0 {
			continue
		}
		name := fmt.Sprintf("continuity_%s.csv", classNames[c].String())
		pts := pts
		if err := write(name, func(f *os.File) error {
			return trace.WriteSeries(f, "continuity", pts)
		}); err != nil {
			return err
		}
	}
	if err := write("topology.csv", func(f *os.File) error {
		t := r.Fig4()
		t.RenderCSV(f)
		return nil
	}); err != nil {
		return err
	}
	return write("figures.txt", func(f *os.File) error {
		for _, t := range []*metrics.Table{
			r.Summary(), r.Fig3a(), r.Fig3b(), r.Fig4(), r.Fig5(bucket),
			r.Fig6(), r.Fig7(), r.Fig8(bucket), r.Fig9a(bucket, 6),
			r.Fig9b(bucket, 6), r.Fig10a(), r.Fig10b(),
		} {
			t.Render(f)
			fmt.Fprintln(f)
		}
		return nil
	})
}
