package trace

import (
	"bytes"
	"io"
	"testing"

	"coolstream/internal/logsys"
	"coolstream/internal/netmodel"
	"coolstream/internal/sim"
	"coolstream/internal/xrand"
)

// benchRecords returns n records in the simulator's mix: mostly
// periodic QoS, traffic and partner reports, with the activity reports
// of each session around them.
func benchRecords(n int) []logsys.Record {
	r := xrand.New(1)
	reasons := []string{"user", "join-timeout", "stall-reenter", "program-end"}
	recs := make([]logsys.Record, n)
	for i := range recs {
		rec := logsys.Record{
			Kind: allKinds[r.Intn(len(allKinds))], At: sim.Time(r.Int63n(int64(24 * sim.Hour))),
			Peer: r.Intn(1 << 20), Session: r.Intn(1 << 22), User: r.Intn(1 << 20),
			PrivateAddr: r.Bool(0.6), TrueClass: netmodel.UserClass(r.Intn(netmodel.NumClasses)), HasTruth: true,
		}
		switch rec.Kind {
		case logsys.KindLeave:
			rec.Reason = reasons[r.Intn(len(reasons))]
		case logsys.KindQoS:
			rec.Continuity = r.Float64()
		case logsys.KindTraffic:
			rec.UploadBytes, rec.DownloadBytes = r.Int63n(1<<30), r.Int63n(1<<30)
		case logsys.KindPartner:
			rec.InPartners, rec.OutPartners = r.Intn(8), r.Intn(8)
			rec.ParentTotal = r.Intn(6)
			rec.ParentReachable = r.Intn(rec.ParentTotal + 1)
			rec.NATParentLinks, rec.PartnerChanges = r.Intn(3), r.Intn(20)
		}
		recs[i] = rec
	}
	return recs
}

const benchN = 20000

func benchJSONL(b *testing.B) []byte {
	var buf bytes.Buffer
	if err := WriteRecords(&buf, benchRecords(benchN)); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

// BenchmarkWriteRecords encodes benchN records per op.
func BenchmarkWriteRecords(b *testing.B) {
	recs := benchRecords(benchN)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteRecords(io.Discard, recs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadRecords decodes and collects benchN records per op.
func BenchmarkReadRecords(b *testing.B) {
	data := benchJSONL(b)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recs, err := ReadRecords(bytes.NewReader(data))
		if err != nil || len(recs) != benchN {
			b.Fatal(len(recs), err)
		}
	}
}

// BenchmarkScanRecords decodes benchN records per op without
// collecting them: the streaming path coolanalyze takes.
func BenchmarkScanRecords(b *testing.B) {
	data := benchJSONL(b)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		err := ScanRecords(bytes.NewReader(data), func(logsys.Record) error { n++; return nil })
		if err != nil || n != benchN {
			b.Fatal(n, err)
		}
	}
}
