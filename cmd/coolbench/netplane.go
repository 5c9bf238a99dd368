// Data-plane saturation harness (-netplane): runs the internal/netsat
// star overlay twice at a fixed peer count — once on the legacy plane
// (one write per frame, full BM maps every period) and once on the
// batched plane (coalesced writer flushes, BM deltas, shared fan-out
// frames) — and folds both measurements plus their ratios into
// BENCH_netplane.json. The acceptance bars for this harness are a ≥2×
// reduction in write syscalls per delivered block and a ≥5× reduction
// in BM signalling bytes at steady state. Each plane's report also
// carries the writer-queue layer: the share of writes that waited out
// the FlushDelay spacing (lingers_per_write) and their mean wait
// (mean_linger_ms).
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"coolstream/internal/netsat"
)

// netplaneResult is the serialised comparison.
type netplaneResult struct {
	Legacy  netsat.Report `json:"legacy"`
	Batched netsat.Report `json:"batched"`
	// Ratios are legacy ÷ batched: >1 means the batched plane is
	// cheaper on that axis.
	WritesPerBlockRatio float64 `json:"writes_per_block_ratio"`
	BytesPerBlockRatio  float64 `json:"bytes_per_block_ratio"`
	BMBytesRatio        float64 `json:"bm_bytes_ratio"`
}

func netplaneBench(dur time.Duration, peers int, jsonPath string) error {
	if peers <= 0 {
		return fmt.Errorf("netplane bench: peers %d", peers)
	}
	base := netsat.Config{Peers: peers, Duration: dur}
	legacyCfg := base
	legacyCfg.Legacy = true
	legacy, err := netsat.Run(legacyCfg)
	if err != nil {
		return err
	}
	batched, err := netsat.Run(base)
	if err != nil {
		return err
	}
	res := netplaneResult{Legacy: legacy, Batched: batched}
	if batched.WritesPerBlock > 0 {
		res.WritesPerBlockRatio = legacy.WritesPerBlock / batched.WritesPerBlock
	}
	if batched.BytesPerBlock > 0 {
		res.BytesPerBlockRatio = legacy.BytesPerBlock / batched.BytesPerBlock
	}
	if batched.BMBytesPerPeerSec > 0 {
		res.BMBytesRatio = legacy.BMBytesPerPeerSec / batched.BMBytesPerPeerSec
	}

	fmt.Printf("# netplane: %d peers, %v window per plane\n", peers, dur)
	fmt.Printf("%-10s %10s %12s %12s %14s %14s %12s %10s %8s\n",
		"plane", "delivered", "writes", "writes/blk", "bytes/blk", "bmB/peer/s",
		"linger/wr", "linger_ms", "min_ci")
	for _, r := range []netsat.Report{legacy, batched} {
		name := "batched"
		if r.Legacy {
			name = "legacy"
		}
		fmt.Printf("%-10s %10d %12d %12.3f %14.1f %14.0f %12.3f %10.3f %8.3f\n",
			name, r.Delivered, r.WriteCalls, r.WritesPerBlock, r.BytesPerBlock,
			r.BMBytesPerPeerSec, r.LingersPerWrite, r.MeanLingerMs, r.MinContinuity)
	}
	fmt.Printf("# ratios (legacy/batched): writes/blk %.2fx  bytes/blk %.2fx  bm bytes %.2fx\n",
		res.WritesPerBlockRatio, res.BytesPerBlockRatio, res.BMBytesRatio)

	var out io.Writer = os.Stdout
	if jsonPath != "" {
		f, err := os.Create(jsonPath)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(res)
}
