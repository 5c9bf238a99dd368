package trace

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"coolstream/internal/logsys"
	"coolstream/internal/netmodel"
	"coolstream/internal/sim"
	"coolstream/internal/xrand"
)

// encodingJSONLines is the reference the codec is differenced
// against: encoding/json's Encoder, as WriteRecords used before the
// reflection-free codec.
func encodingJSONLines(recs []logsys.Record) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, rec := range recs {
		if err := enc.Encode(rec); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

var (
	allKinds = []logsys.EventKind{
		logsys.KindJoin, logsys.KindStartSub, logsys.KindMediaReady, logsys.KindLeave,
		logsys.KindQoS, logsys.KindTraffic, logsys.KindPartner,
	}
	// sweepReasons mixes the simulator's leave reasons with strings
	// encoding/json escapes: HTML characters, quotes, control bytes,
	// U+2028, non-ASCII and invalid UTF-8.
	sweepReasons = []string{
		"", "user", "join-timeout", "stall-reenter", "program-end",
		"<b>&amp;</b>", `quote " and \ backslash`, "tab\tnl\n", "\u2028sep\u2029",
		"héllo", "bad\xffutf8", "del\x7f",
	}
	// sweepFloats are continuity values at encoding/json's format
	// boundaries: the 'e' form below 1e-6 and from 1e21, negative zero,
	// and the extremes of float64.
	sweepFloats = []float64{
		0, math.Copysign(0, -1), 1, 0.5, 0.98, 1.0 / 3, 1e-6, 9.99999e-7, 1e-7, -1e-7,
		1e20, 1e21, -1e21, 123456789e13, math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64,
	}
)

// sweepRecord derives a record from seed with every field populated
// independently of its kind, so the codec sees combinations the
// simulator never emits, including the integer extremes.
func sweepRecord(seed uint64) logsys.Record {
	r := xrand.New(seed)
	anyInt := func() int64 {
		switch r.Intn(6) {
		case 0:
			return 0
		case 1:
			return math.MaxInt64
		case 2:
			return math.MinInt64
		case 3:
			return -r.Int63n(1 << 40)
		}
		return r.Int63n(1 << 50)
	}
	rec := logsys.Record{
		Kind:            allKinds[r.Intn(len(allKinds))],
		At:              sim.Time(anyInt()),
		Peer:            int(anyInt()),
		Session:         int(anyInt()),
		User:            int(anyInt()),
		PrivateAddr:     r.Bool(0.5),
		Reason:          sweepReasons[r.Intn(len(sweepReasons))],
		UploadBytes:     anyInt(),
		DownloadBytes:   anyInt(),
		InPartners:      int(anyInt()),
		OutPartners:     int(anyInt()),
		ParentReachable: int(anyInt()),
		ParentTotal:     int(anyInt()),
		NATParentLinks:  int(anyInt()),
		PartnerChanges:  int(anyInt()),
		TrueClass:       netmodel.UserClass(r.Intn(256)),
		HasTruth:        r.Bool(0.5),
	}
	switch r.Intn(3) {
	case 0:
		rec.Continuity = sweepFloats[r.Intn(len(sweepFloats))]
	case 1:
		rec.Continuity = r.Float64()
	default:
		rec.Continuity = math.Float64frombits(r.Uint64())
	}
	if r.Bool(0.1) {
		rec.Kind = logsys.EventKind(sweepReasons[r.Intn(len(sweepReasons))])
	}
	return rec
}

// checkEncode asserts WriteRecords writes exactly what json.Encoder
// writes for recs, and errors exactly when it errors.
func checkEncode(t *testing.T, recs []logsys.Record) {
	t.Helper()
	want, wantErr := encodingJSONLines(recs)
	var got bytes.Buffer
	err := WriteRecords(&got, recs)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("WriteRecords error %v, encoding/json error %v, records %+v", err, wantErr, recs)
	}
	if err == nil && !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("WriteRecords diverged from encoding/json:\n got: %q\nwant: %q", got.Bytes(), want)
	}
}

// checkDecode asserts decodeRecord agrees with json.Unmarshal on line:
// the same error or no error, and the same record.
func checkDecode(t *testing.T, line []byte) {
	t.Helper()
	var want logsys.Record
	wantErr := json.Unmarshal(line, &want)
	got, err := decodeRecord(line)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("decode of %q: error %v, encoding/json error %v", line, err, wantErr)
	}
	if err == nil && got != want {
		t.Fatalf("decode of %q:\n got: %+v\nwant: %+v", line, got, want)
	}
}

// TestJSONLCodecSweep encodes 3,000 seeded records through both
// encoders, and decodes every line the encoder writes through the fast
// path alone: WriteRecords' own output must never need the fallback.
func TestJSONLCodecSweep(t *testing.T) {
	const n = 3000
	for seed := uint64(0); seed < n; seed++ {
		rec := sweepRecord(seed)
		checkEncode(t, []logsys.Record{rec})
		if math.IsNaN(rec.Continuity) || math.IsInf(rec.Continuity, 0) {
			continue
		}
		line, err := appendRecord(nil, &rec)
		if err != nil {
			t.Fatal(err)
		}
		checkDecode(t, line)
		if isPlain(rec.Kind) && isPlain(logsys.EventKind(rec.Reason)) {
			got, ok := decodeFast(line)
			if !ok || got != rec {
				t.Fatalf("fast path on %q: ok=%v got %+v", line, ok, got)
			}
		}
	}
}

// isPlain reports whether encoding/json writes s without escapes, so
// the fast decoder reads it back as is.
func isPlain(s logsys.EventKind) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || strings.IndexByte(`"\<>&`, c) >= 0 {
			return false
		}
	}
	return true
}

// TestRecordFieldsHandled is the guard against a Record field added
// later silently dropping out of .jsonl: each exported field, set alone
// to a non-zero value, must be written as encoding/json writes it and
// read back through the fast path.
func TestRecordFieldsHandled(t *testing.T) {
	typ := reflect.TypeOf(logsys.Record{})
	if typ.NumField() != numFields {
		t.Fatalf("Record has %d fields, the decoder knows %d", typ.NumField(), numFields)
	}
	for i := 0; i < typ.NumField(); i++ {
		fd := typ.Field(i)
		var rec logsys.Record
		v := reflect.ValueOf(&rec).Elem().Field(i)
		switch v.Kind() {
		case reflect.String:
			v.SetString("x")
		case reflect.Bool:
			v.SetBool(true)
		case reflect.Int, reflect.Int64:
			v.SetInt(-7)
		case reflect.Uint8:
			v.SetUint(3)
		case reflect.Float64:
			v.SetFloat(0.25)
		default:
			t.Fatalf("field %s has kind %v, which the codec does not handle", fd.Name, v.Kind())
		}
		checkEncode(t, []logsys.Record{rec})
		line, err := appendRecord(nil, &rec)
		if err != nil {
			t.Fatal(err)
		}
		if want := `"` + fd.Name + `":`; string(fieldKeys[i]) != want {
			t.Fatalf("decoder slot %d is %s, want %s", i, fieldKeys[i], want)
		}
		if got, ok := decodeFast(line); !ok || got != rec {
			t.Fatalf("field %s: fast path ok=%v, got %+v, want %+v", fd.Name, ok, got, rec)
		}
	}
}

func FuzzJSONLEncode(f *testing.F) {
	f.Add("join", int64(5000), 1, 2, 3, true, "", 0.0, int64(0), int64(0), 0, 0, 0, 0, 0, 0, uint8(2), true)
	f.Add("qos", int64(300000), 1, 2, 3, false, "", 0.98, int64(0), int64(0), 0, 0, 0, 0, 0, 0, uint8(0), false)
	f.Add("leave", int64(0), 0, 0, 0, false, "<script>&", 1e-7, int64(0), int64(0), 0, 0, 0, 0, 0, 0, uint8(0), false)
	f.Add("leave", int64(-1), -1, -1, -1, false, "\u2028\xff", 1e21, int64(math.MaxInt64), int64(math.MinInt64), 0, 0, 0, 0, 0, 0, uint8(255), true)
	f.Add("qos", int64(0), 0, 0, 0, false, "", math.Copysign(0, -1), int64(0), int64(0), math.MaxInt, math.MinInt, 0, 0, 0, 0, uint8(0), false)
	f.Add("qos", int64(0), 0, 0, 0, false, "", math.NaN(), int64(0), int64(0), 0, 0, 0, 0, 0, 0, uint8(0), false)
	f.Add("qos", int64(0), 0, 0, 0, false, "", math.Inf(-1), int64(0), int64(0), 0, 0, 0, 0, 0, 0, uint8(0), false)
	f.Fuzz(func(t *testing.T, kind string, at int64, peer, sess, user int, priv bool, reason string,
		ci float64, up, down int64, in, out, preach, ptotal, natlinks, pchg int, class uint8, truth bool) {
		checkEncode(t, []logsys.Record{{
			Kind: logsys.EventKind(kind), At: sim.Time(at), Peer: peer, Session: sess, User: user,
			PrivateAddr: priv, Reason: reason, Continuity: ci, UploadBytes: up, DownloadBytes: down,
			InPartners: in, OutPartners: out, ParentReachable: preach, ParentTotal: ptotal,
			NATParentLinks: natlinks, PartnerChanges: pchg, TrueClass: netmodel.UserClass(class), HasTruth: truth,
		}})
	})
}

func FuzzJSONLDecode(f *testing.F) {
	for seed := uint64(0); seed < 8; seed++ {
		rec := sweepRecord(seed)
		rec.Continuity = 0.5
		line, _ := appendRecord(nil, &rec)
		f.Add(line)
	}
	for _, s := range []string{
		``, `{}`, ` { } `, `null`, `[]`, `1`, `"x"`, `{"Kind":"join"}x`, `{"Kind":"join",}`,
		`{"kind":"join"}`, `{"KIND":"join"}`, `{"Kind":"join","Kind":"qos"}`, `{"Unknown":1,"Peer":2}`,
		`{"Kind":null,"Peer":null,"HasTruth":null}`, `{"Kind":"\u006aoin"}`, `{"Reason":"h\u00e9"}`,
		`{"Reason":"é"}`, `{"Peer":1.0}`, `{"Peer":1e2}`, `{"Peer":-0}`, `{"Peer":01}`, `{"Peer":-}`,
		`{"Peer":9223372036854775807}`, `{"Peer":9223372036854775808}`, `{"Peer":-9223372036854775808}`,
		`{"Peer":-9223372036854775809}`, `{"Peer":"1"}`, `{"TrueClass":255}`, `{"TrueClass":256}`,
		`{"TrueClass":-0}`, `{"Continuity":1e400}`, `{"Continuity":-0.0}`, `{"Continuity":1E-7}`,
		`{"Continuity":.5}`, `{"Continuity":1.}`, `{"Continuity":0x1p-2}`, `{"Continuity":Infinity}`,
		`{"PrivateAddr":tru}`, `{"PrivateAddr":1}`, "{\"Kind\":\"a\tb\"}", "{\t\"At\"\r:\n5 }",
		`{"At":5 "Peer":1}`, `{"At":5,,"Peer":1}`, `{"At"5}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		checkDecode(t, line)
	})
}

// TestScanRecordsEdgeCases covers the stream-level contract: line
// endings, blank lines, error positions and callback errors.
func TestScanRecordsEdgeCases(t *testing.T) {
	collect := func(in string) ([]logsys.Record, error) {
		var out []logsys.Record
		err := ScanRecords(strings.NewReader(in), func(rec logsys.Record) error {
			out = append(out, rec)
			return nil
		})
		return out, err
	}
	join := logsys.Record{Kind: logsys.KindJoin, At: 5, Peer: 1}
	line, err := appendRecord(nil, &join)
	if err != nil {
		t.Fatal(err)
	}
	l := strings.TrimSuffix(string(line), "\n")

	t.Run("crlf", func(t *testing.T) {
		got, err := collect(l + "\r\n" + l + "\r\n")
		if err != nil || len(got) != 2 || got[0] != join || got[1] != join {
			t.Fatalf("got %+v, %v", got, err)
		}
	})
	t.Run("blank and whitespace-only lines", func(t *testing.T) {
		got, err := collect("\n \t\n" + l + "\n\r\n  \n" + l)
		if err != nil || len(got) != 2 {
			t.Fatalf("got %+v, %v", got, err)
		}
	})
	t.Run("line number of a bad line", func(t *testing.T) {
		_, err := collect(l + "\n\n" + l + "\n{\"Peer\":x}\n" + l + "\n")
		if err == nil || !strings.Contains(err.Error(), "trace: line 4:") {
			t.Fatalf("error %v, want one naming line 4", err)
		}
		var syn *json.SyntaxError
		if !errors.As(err, &syn) {
			t.Fatalf("error %v does not wrap the json.SyntaxError", err)
		}
	})
	t.Run("trailing bytes after the object", func(t *testing.T) {
		if _, err := collect(l + "x\n"); err == nil {
			t.Fatal("trailing bytes accepted")
		}
		if _, err := collect(l + l + "\n"); err == nil {
			t.Fatal("two objects on one line accepted")
		}
	})
	t.Run("line over 64 KiB", func(t *testing.T) {
		long := logsys.Record{Kind: logsys.KindLeave, Reason: strings.Repeat("r", 100<<10)}
		var buf bytes.Buffer
		if err := WriteRecords(&buf, []logsys.Record{join, long, join}); err != nil {
			t.Fatal(err)
		}
		got, err := collect(buf.String())
		if err != nil || len(got) != 3 || got[1] != long {
			t.Fatalf("got %d records, %v", len(got), err)
		}
	})
	t.Run("callback error returned unchanged", func(t *testing.T) {
		stop := errors.New("stop")
		calls := 0
		err := ScanRecords(strings.NewReader(l+"\n"+l+"\n"), func(logsys.Record) error {
			calls++
			return stop
		})
		if err != stop || calls != 1 {
			t.Fatalf("error %v after %d calls, want the callback's own error after 1", err, calls)
		}
	})
}

// TestReadRecordsChunks reads a stream that spans several collection
// chunks and checks order and count survive the final copy.
func TestReadRecordsChunks(t *testing.T) {
	recs := make([]logsys.Record, 2*recordChunk+17)
	for i := range recs {
		recs[i] = logsys.Record{Kind: logsys.KindQoS, At: sim.Time(i), Peer: i, Continuity: float64(i) / 7}
	}
	var buf bytes.Buffer
	if err := WriteRecords(&buf, recs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRecords(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) || cap(got) != len(recs) {
		t.Fatalf("len %d cap %d, want %d", len(got), cap(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Fatalf("record %d: %+v vs %+v", i, got[i], recs[i])
		}
	}
}
