package netboot

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// TestWireRequestRoundTrips pins every request encoding against its
// decoder.
func TestWireRequestRoundTrips(t *testing.T) {
	cases := []struct {
		name string
		enc  func([]byte) []byte
		want trackerReq
	}{
		{"register", func(b []byte) []byte { return appendRegisterReq(b, 42, "10.1.2.3:9000") },
			trackerReq{op: opRegister, id: 42, addr: "10.1.2.3:9000"}},
		{"register-negative-id", func(b []byte) []byte { return appendRegisterReq(b, -7, "x:1") },
			trackerReq{op: opRegister, id: -7, addr: "x:1"}},
		{"leave", func(b []byte) []byte { return appendLeaveReq(b, 99) },
			trackerReq{op: opLeave, id: 99}},
		{"candidates", func(b []byte) []byte { return appendCandidatesReq(b, 12, -1) },
			trackerReq{op: opCandidates, n: 12, exclude: -1}},
		{"candidates-exclude-none", func(b []byte) []byte { return appendCandidatesReq(b, 3, ExcludeNone) },
			trackerReq{op: opCandidates, n: 3, exclude: ExcludeNone}},
		{"count", appendCountReq, trackerReq{op: opCount}},
	}
	for _, tc := range cases {
		body := tc.enc(nil)
		got, err := decodeReq(body)
		if err != nil {
			t.Fatalf("%s: decode: %v", tc.name, err)
		}
		if got != tc.want {
			t.Fatalf("%s: got %+v want %+v", tc.name, got, tc.want)
		}
		// Truncations at every prefix length must error, never panic.
		for cut := 0; cut < len(body); cut++ {
			if _, err := decodeReq(body[:cut]); err == nil {
				t.Fatalf("%s: truncation at %d decoded successfully", tc.name, cut)
			}
		}
		// Trailing garbage must be rejected (frames are exact).
		if _, err := decodeReq(append(append([]byte{}, body...), 0xee)); err == nil {
			t.Fatalf("%s: trailing byte accepted", tc.name)
		}
	}
	if _, err := decodeReq([]byte{250}); err == nil {
		t.Fatal("unknown op accepted")
	}
	if _, err := decodeReq(nil); err == nil {
		t.Fatal("empty body accepted")
	}
}

// TestWireCandidatesRespRoundTrip pins the candidates response
// encoding through the client-side decoder.
func TestWireCandidatesRespRoundTrip(t *testing.T) {
	entries := []Entry{{ID: 1, Addr: "a:1"}, {ID: -9, Addr: "host.example:65535"}, {ID: 3, Addr: ""}}
	body := appendCandidatesResp(nil, entries)
	var got []Entry
	err := decodeResp(body, func(sc *scanner) (err error) {
		got, err = decodeCandidatesResp(sc)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(entries) {
		t.Fatalf("entries %d, want %d", len(got), len(entries))
	}
	for i := range got {
		if got[i] != entries[i] {
			t.Fatalf("entry %d: %+v want %+v", i, got[i], entries[i])
		}
	}
}

// TestWireErrorResp pins error responses and their client-side
// classification.
func TestWireErrorResp(t *testing.T) {
	body := appendErrResp(nil, stUnavailable, "tracker down")
	sc := scanner{b: body}
	st := sc.u8("status")
	msg := sc.str("msg")
	if err := sc.done(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(respError(st, msg), ErrUnavailable) {
		t.Fatal("unavailable status did not map to ErrUnavailable")
	}
	if err := respError(stOwnerLimit, "x"); !errors.Is(err, ErrOwnerLimit) {
		t.Fatalf("owner-limit status mapped to %v", err)
	}
	if err := respError(stBadRequest, "nope"); errors.Is(err, ErrUnavailable) {
		t.Fatal("bad-request status retryable")
	}
	// Long messages are truncated, not rejected.
	long := strings.Repeat("m", 1000)
	body = appendErrResp(nil, stBadRequest, long)
	sc = scanner{b: body}
	sc.u8("status")
	if got := sc.str("msg"); len(got) != 255 {
		t.Fatalf("message length %d, want 255", len(got))
	}
}

// TestWireUnavailableRetryAfter pins the extended unavailable
// response — error body plus u32 retry-after hint — as the client
// scans it.
func TestWireUnavailableRetryAfter(t *testing.T) {
	body := appendUnavailableResp(nil, "tracker overloaded", 750)
	sc := scanner{b: body}
	if st := sc.u8("status"); st != stUnavailable {
		t.Fatalf("status %d", st)
	}
	if msg := sc.str("msg"); msg != "tracker overloaded" {
		t.Fatalf("msg %q", msg)
	}
	if ms := sc.u32("retry-after"); ms != 750 {
		t.Fatalf("retry-after %d, want 750", ms)
	}
	if err := sc.done(); err != nil {
		t.Fatal(err)
	}
	// Truncating the hint must error, never panic.
	for cut := len(body) - 4; cut < len(body); cut++ {
		sc := scanner{b: body[:cut]}
		sc.u8("status")
		sc.str("msg")
		sc.u32("retry-after")
		if sc.done() == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

// TestWireFraming pins the frame reader's bounds and the scratch-buffer
// reuse contract.
func TestWireFraming(t *testing.T) {
	var buf bytes.Buffer
	body := appendRegisterReq(nil, 7, "a:1")
	scratch, err := writeTrackerFrame(&buf, nil, body)
	if err != nil {
		t.Fatal(err)
	}
	readBuf, got, err := readTrackerFrame(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, body) {
		t.Fatalf("frame body %x, want %x", got, body)
	}
	// Reuse: a second frame through the same buffers must not allocate
	// differently or corrupt.
	buf.Reset()
	body2 := appendLeaveReq(nil, 8)
	if _, err := writeTrackerFrame(&buf, scratch, body2); err != nil {
		t.Fatal(err)
	}
	if _, got, err = readTrackerFrame(&buf, readBuf); err != nil || !bytes.Equal(got, body2) {
		t.Fatalf("reused-buffer frame: %x err=%v", got, err)
	}

	// Zero-length and oversized frames are rejected.
	for _, hdr := range [][]byte{
		{0, 0, 0, 0},
		{0xff, 0xff, 0xff, 0xff},
		{0, 2, 0, 0}, // 128 KiB > maxTrackerFrame
	} {
		if _, _, err := readTrackerFrame(bytes.NewReader(hdr), nil); err == nil {
			t.Fatalf("frame header %x accepted", hdr)
		}
	}
	// Truncated body errors.
	short := []byte{0, 0, 0, 10, 1, 2}
	if _, _, err := readTrackerFrame(bytes.NewReader(short), nil); err == nil {
		t.Fatal("truncated frame accepted")
	}
}
