// Package trace persists run artifacts: log records as JSONL (one
// record per line) and metric series as CSV, with matching readers, so
// simulation runs can be archived and re-analysed by cmd/coolanalyze
// without re-running the simulator.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"coolstream/internal/logsys"
	"coolstream/internal/metrics"
	"coolstream/internal/sim"
)

// WriteRecords streams log records as JSONL, one JSON object per line,
// byte-identical to json.Encoder output. Records are encoded into one
// reused buffer that is written out in large blocks.
func WriteRecords(w io.Writer, recs []logsys.Record) error {
	const flushAt = 64 * 1024
	buf := make([]byte, 0, flushAt+1024)
	for i := range recs {
		var err error
		if buf, err = appendRecord(buf, &recs[i]); err != nil {
			return fmt.Errorf("trace: record %d: %w", i, err)
		}
		if len(buf) >= flushAt {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	if len(buf) > 0 {
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// recordChunk is how many records ReadRecords collects per chunk
// before starting the next one.
const recordChunk = 4096

// ReadRecords reads a whole JSONL record stream. It collects into
// fixed-size chunks and copies them once into an exactly sized slice,
// so a large stream never pays for append regrowth. Prefer ScanRecords
// when the consumer can stream.
func ReadRecords(r io.Reader) ([]logsys.Record, error) {
	var full [][]logsys.Record
	cur := make([]logsys.Record, 0, recordChunk)
	err := ScanRecords(r, func(rec logsys.Record) error {
		if len(cur) == cap(cur) {
			full = append(full, cur)
			cur = make([]logsys.Record, 0, recordChunk)
		}
		cur = append(cur, rec)
		return nil
	})
	if err != nil {
		return nil, err
	}
	n := len(full)*recordChunk + len(cur)
	if n == 0 {
		return nil, nil
	}
	out := make([]logsys.Record, 0, n)
	for _, c := range full {
		out = append(out, c...)
	}
	return append(out, cur...), nil
}

// WriteSeries writes a metric series as two-column CSV.
func WriteSeries(w io.Writer, name string, pts []metrics.SeriesPoint) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "t_ms,%s\n", name); err != nil {
		return err
	}
	for _, p := range pts {
		if _, err := fmt.Fprintf(bw, "%d,%g\n", int64(p.At), p.Value); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadSeries reads a two-column CSV produced by WriteSeries, returning
// the series name and points.
func ReadSeries(r io.Reader) (string, []metrics.SeriesPoint, error) {
	sc := bufio.NewScanner(r)
	if !sc.Scan() {
		return "", nil, fmt.Errorf("trace: empty series")
	}
	header := strings.Split(sc.Text(), ",")
	if len(header) != 2 || header[0] != "t_ms" {
		return "", nil, fmt.Errorf("trace: bad series header %q", sc.Text())
	}
	var pts []metrics.SeriesPoint
	line := 1
	for sc.Scan() {
		line++
		cells := strings.Split(sc.Text(), ",")
		if len(cells) != 2 {
			return "", nil, fmt.Errorf("trace: line %d: %d cells", line, len(cells))
		}
		at, err := strconv.ParseInt(cells[0], 10, 64)
		if err != nil {
			return "", nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		v, err := strconv.ParseFloat(cells[1], 64)
		if err != nil {
			return "", nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		pts = append(pts, metrics.SeriesPoint{At: sim.Time(at), Value: v})
	}
	return header[1], pts, sc.Err()
}
