package netsat

import (
	"testing"
	"time"

	"coolstream/internal/buffer"
)

// quickConfig keeps the harness affordable inside the test suite: a
// modest rate, two peers, sub-second window.
func quickConfig(legacy bool) Config {
	return Config{
		Peers:    2,
		Layout:   buffer.Layout{K: 4, RateBps: 1e6, BlockBytes: 800},
		BMPeriod: 25 * time.Millisecond,
		Duration: 500 * time.Millisecond,
		Settle:   300 * time.Millisecond,
		Legacy:   legacy,
	}
}

func TestRunBothPlanes(t *testing.T) {
	for _, legacy := range []bool{true, false} {
		rep, err := Run(quickConfig(legacy))
		if err != nil {
			t.Fatalf("legacy=%v: %v", legacy, err)
		}
		if rep.Delivered == 0 || rep.WriteCalls == 0 || rep.BytesSent == 0 {
			t.Fatalf("legacy=%v: empty measurement %+v", legacy, rep)
		}
		if rep.MinContinuity < 0.5 {
			t.Fatalf("legacy=%v: continuity collapsed at 2 peers: %+v", legacy, rep)
		}
		if rep.BMFrames == 0 {
			t.Fatalf("legacy=%v: no BM traffic measured", legacy)
		}
		if legacy && rep.FanShared > 0 {
			t.Fatalf("legacy plane used the fan-out cache: %+v", rep)
		}
		if !legacy && rep.FanEncodes == 0 {
			t.Fatalf("batched plane never used the fan-out encoder: %+v", rep)
		}
		if legacy && rep.FlushLingers > 0 {
			t.Fatalf("legacy plane has no writer but lingered: %+v", rep)
		}
		if rep.FlushLingers > rep.WriteCalls || rep.LingersPerWrite > 1 {
			t.Fatalf("legacy=%v: more lingers than writes: %+v", legacy, rep)
		}
	}
}

func TestSweepStopsAtMax(t *testing.T) {
	cfg := quickConfig(false)
	cfg.Duration = 300 * time.Millisecond
	cfg.Settle = 200 * time.Millisecond
	reps, sustainable, err := Sweep(cfg, 2, 4, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) == 0 || sustainable < 2 {
		t.Fatalf("sweep: %d runs, sustainable %d", len(reps), sustainable)
	}
}
