package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"coolstream/internal/core"
)

// declared reads the metrics BENCHMARK.json declares, in order.
func declared(t *testing.T) (endToEnd, perLayer []declaredMetric) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, declaredMetric{name: m.Name, unit: m.Unit})
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, declaredMetric{name: m.Name, unit: m.Unit})
	}
	return endToEnd, perLayer
}

// TestTablesMatchManifest checks that the metric tables the command
// fills its result lines from are the ones BENCHMARK.json declares.
func TestTablesMatchManifest(t *testing.T) {
	endToEndJSON, perLayerJSON := declared(t)
	for _, c := range []struct {
		what       string
		json, code []declaredMetric
	}{{"end_to_end", endToEndJSON, endToEnd}, {"per_layer", perLayerJSON, perLayer}} {
		if len(c.json) != len(c.code) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the command %d", c.what, len(c.json), len(c.code))
			continue
		}
		for i, m := range c.json {
			if m.name != c.code[i].name || m.unit != c.code[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s %s, the command %s %s", c.what, i, m.name, m.unit, c.code[i].name, c.code[i].unit)
			}
		}
	}
}

type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// TestWorkloadsEmitEveryMetric runs every workload at the self-test
// size, untraced and traced, and checks that each result line holds
// every declared metric of its kind in its unit and nothing else, that
// the end-to-end metrics are never 0, and that a layer metric is 0
// only on a workload that never calls the layer, or where it counts
// events that may not happen in a tiny run.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	mayBeZero := map[string]bool{
		"peer.adaptations": true, "netboot.unavailable": true, "netboot.shed": true,
		"netpeer.join_retries_p90": true, "netpeer.rejects": true, "netpeer.lane_retries": true,
		"netpeer.slow_partner_teardowns": true, "netpeer.pusher_aborts": true,
		"netpeer.handshakes_shed": true, "go.gc_pause_ms": true, "go.gc_cycles": true,
		"bench.trace_overhead_latency_ms": true, "bench.gen_late_ms_p99": true,
	}
	for trace, want := range [][]declaredMetric{endToEnd, perLayer} {
		for _, name := range []string{paperDay, logReplay, liveSwarm} {
			var out, errOut bytes.Buffer
			args := []string{"--workload", name, "--seed", "5", "--seconds", "2",
				"--trace", []string{"0", "1"}[trace], "--tiny", "--dir", t.TempDir()}
			if code := run(args, &out, &errOut); code != 0 {
				t.Fatalf("%s trace=%d: exit %d: %s", name, trace, code, errOut.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res resultLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s: last line: %v", name, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d", name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%d: %d metrics, want %d", name, trace, len(res.Metrics), len(want))
			}
			for _, d := range want {
				v, ok := res.Metrics[d.name]
				runs := d.on == nil || slices.Contains(d.on, name)
				switch {
				case !ok:
					t.Errorf("%s trace=%d does not emit %s", name, trace, d.name)
				case v.Unit != d.unit:
					t.Errorf("%s: metric %s unit %q, BENCHMARK.json says %q", name, d.name, v.Unit, d.unit)
				case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
					t.Errorf("%s: metric %s = %v", name, d.name, v.Value)
				case !runs && v.Value != 0:
					t.Errorf("%s: %s = %v for a layer the workload never calls", name, d.name, v.Value)
				case runs && v.Value == 0 && !mayBeZero[d.name]:
					t.Errorf("%s trace=%d: %s = 0", name, trace, d.name)
				}
			}
		}
	}
}

// TestCompleteRejectsGaps checks that a workload missing a metric it
// measures, or reporting one it does not, fails instead of printing a
// partial result line.
func TestCompleteRejectsGaps(t *testing.T) {
	r := newReport()
	for _, d := range endToEnd[1:] {
		r.set(d.name, d.unit, 1)
	}
	if err := r.complete(paperDay, false); err == nil {
		t.Error("a result without setup_s passed")
	}
	r = newReport()
	r.set("netpeer.blocks_delivered", "count", 1)
	if err := r.complete(paperDay, true); err == nil {
		t.Error("paper-day reporting a netpeer metric passed")
	}
}

// TestReplayRejectsDroppedRecord checks that a log missing one record
// fails the replay check in both formats, and that the intact log
// passes it.
func TestReplayRejectsDroppedRecord(t *testing.T) {
	ref, _, err := setupReplay(dayConfig(9, true), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, jsonl := range []bool{false, true} {
		format := map[bool]string{false: "log", true: "jsonl"}[jsonl]
		got, err := replay(ref, jsonl, false)
		if err != nil {
			t.Fatal(err)
		}
		if rep := newReport(); !checkReplay(rep, format, ref, got) {
			t.Fatalf("%s: intact log fails the check: %v", format, rep.Failures)
		}

		path := ref.logPath
		if jsonl {
			path = ref.jsonlPath
		}
		dropLine(t, path, ref.records/2)
		got, err = replay(ref, jsonl, false)
		if err != nil {
			t.Fatal(err)
		}
		if rep := newReport(); checkReplay(rep, format, ref, got) {
			t.Errorf("%s: a log with one record dropped passes the check", format)
		}
	}
}

// dropLine rewrites path without its n-th line.
func dropLine(t *testing.T, path string, n int) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 64*1024), 4*1024*1024)
	for i := 0; sc.Scan(); i++ {
		if i != n {
			out.Write(sc.Bytes())
			out.WriteByte('\n')
		}
	}
	if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestTracedDayDigestParity checks that the traced pipeline reproduces
// core.Run, and that a digest mismatch fails the check.
func TestTracedDayDigestParity(t *testing.T) {
	cfg := dayConfig(4, true)
	res, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := tracedDay(cfg, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rep := newReport()
	if bad := checkDigests(rep, "traced run", res.Digest(), []uint64{tr.res.Digest()}); bad != 0 {
		t.Fatalf("traced digest differs from core.Run: %v", rep.Failures)
	}
	if !bytes.Equal(renderFigures(tr.res, false), renderFigures(res, false)) {
		t.Error("traced figures differ from core.Run's")
	}
	if bad := checkDigests(rep, "traced run", res.Digest()^1, []uint64{tr.res.Digest()}); bad != 1 || len(rep.Failures) != 1 {
		t.Errorf("a digest mismatch was not reported: bad=%d failures=%v", bad, rep.Failures)
	}
}

// TestGoroutineCheckCatchesLeak checks that the teardown check fails
// while a goroutine started after the baseline is still running.
func TestGoroutineCheckCatchesLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		<-stop
	}()
	if goroutinesSettle(base, 50*time.Millisecond) {
		t.Error("a leaked goroutine passed the teardown check")
	}
	close(stop)
	<-done
	if !goroutinesSettle(base, time.Second) {
		t.Error("the teardown check failed with no goroutine leaked")
	}
}
