package netboot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
	"time"
)

// The tracker codec faces the network on both ends: the server decodes
// whatever a client sends, and a client decodes whatever answers on
// the tracker's address. These targets hold every decoder to three
// rules: never panic, never accept or allocate past the 64 KiB frame
// bound, and accept only bytes the matching encoder would produce.

// FuzzDecodeReq feeds arbitrary request bodies to the server-side
// decoder: an accepted request must re-encode byte-identically.
func FuzzDecodeReq(f *testing.F) {
	f.Add(appendRegisterReq(nil, 42, "10.1.2.3:9000"))
	f.Add(appendRegisterReq(nil, -7, ""))
	f.Add(appendLeaveReq(nil, 99))
	f.Add(appendCandidatesReq(nil, 12, ExcludeNone))
	f.Add(appendCountReq(nil))
	f.Add([]byte{opRegister, 0, 0, 0, 1, 0xff, 0xff, 'x'})
	f.Add([]byte{250})
	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) > maxTrackerFrame {
			return // readTrackerFrame never hands the decoder more
		}
		req, err := decodeReq(body)
		if err != nil {
			return
		}
		var re []byte
		switch req.op {
		case opRegister:
			re = appendRegisterReq(nil, req.id, req.addr)
		case opLeave:
			re = appendLeaveReq(nil, req.id)
		case opCandidates:
			re = appendCandidatesReq(nil, req.n, req.exclude)
		case opCount:
			re = appendCountReq(nil)
		default:
			t.Fatalf("accepted unknown op %d", req.op)
		}
		if !bytes.Equal(re, body) {
			t.Fatalf("accepted %x, re-encodes as %x", body, re)
		}
	})
}

// FuzzReadTrackerFrame reads frames back to back from an arbitrary
// stream: every frame returned lies within (0, 64 KiB], reframes to
// the exact bytes consumed, and an out-of-range length is refused
// before any of its body is read.
func FuzzReadTrackerFrame(f *testing.F) {
	frame := func(body []byte) []byte {
		var b bytes.Buffer
		if _, err := writeTrackerFrame(&b, nil, body); err != nil {
			f.Fatal(err)
		}
		return b.Bytes()
	}
	f.Add(frame(appendCountReq(nil)))
	f.Add(append(frame(appendLeaveReq(nil, 3)), frame(appendCountResp(nil, 7))...))
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0, 1, 0, 1, 1, 2, 3})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{0, 0, 0, 5, 1, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		var buf []byte
		for off := 0; ; {
			var body []byte
			var err error
			buf, body, err = readTrackerFrame(r, buf)
			if cap(buf) > maxTrackerFrame {
				t.Fatalf("read buffer grew to %d bytes", cap(buf))
			}
			if err != nil {
				if len(data)-off >= 4 {
					n := binary.BigEndian.Uint32(data[off:])
					if (n == 0 || n > maxTrackerFrame) && r.Len() != len(data)-off-4 {
						t.Fatalf("length %d refused after reading %d body bytes", n, len(data)-off-4-r.Len())
					}
				}
				return
			}
			if len(body) == 0 || len(body) > maxTrackerFrame {
				t.Fatalf("frame body of %d bytes", len(body))
			}
			var re bytes.Buffer
			if _, err := writeTrackerFrame(&re, nil, body); err != nil {
				t.Fatal(err)
			}
			end := off + 4 + len(body)
			if !bytes.Equal(re.Bytes(), data[off:end]) {
				t.Fatalf("frame at %d reframes as %x, read from %x", off, re.Bytes(), data[off:end])
			}
			off = end
		}
	})
}

// FuzzTCPClientResp feeds arbitrary response bodies to the client-side
// decoders of every request kind: an accepted OK answer re-encodes
// byte-identically, a retryable one carries its hint intact, and a
// candidates list never outgrows what the frame can hold.
func FuzzTCPClientResp(f *testing.F) {
	f.Add(appendRegisterResp(nil, 3000))
	f.Add(appendCandidatesResp(nil, []Entry{{ID: 1, Addr: "a:1"}, {ID: -9, Addr: ""}}))
	f.Add(appendCountResp(nil, 12))
	f.Add(appendUnavailableResp(nil, "shed", 250))
	f.Add(appendErrResp(nil, stBadRequest, "bad"))
	f.Add(appendErrResp(nil, stOwnerLimit, "limit"))
	f.Add([]byte{stOK, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) > maxTrackerFrame {
			return // readTrackerFrame never hands the decoder more
		}
		checkErr := func(err error) {
			t.Helper()
			var ue *UnavailableError
			if !errors.As(err, &ue) || len(ue.Msg) > 255 {
				return
			}
			re := appendUnavailableResp(nil, ue.Msg, uint32(ue.RetryAfter/time.Millisecond))
			if !bytes.Equal(re, body) {
				t.Fatalf("unavailable %x re-encodes as %x", body, re)
			}
			if !retryable(err) {
				t.Fatal("unavailable answer not retryable")
			}
		}

		var lease time.Duration
		err := decodeResp(body, func(sc *scanner) (err error) {
			lease, err = decodeLeaseResp(sc)
			return err
		})
		if err == nil {
			if re := appendRegisterResp(nil, uint32(lease/time.Millisecond)); !bytes.Equal(re, body) {
				t.Fatalf("lease %x re-encodes as %x", body, re)
			}
		}
		checkErr(err)

		var entries []Entry
		err = decodeResp(body, func(sc *scanner) (err error) {
			entries, err = decodeCandidatesResp(sc)
			return err
		})
		if 6*cap(entries) > len(body) {
			t.Fatalf("%d-byte body sized a %d-entry list", len(body), cap(entries))
		}
		if err == nil {
			if re := appendCandidatesResp(nil, entries); !bytes.Equal(re, body) {
				t.Fatalf("candidates %x re-encode as %x", body, re)
			}
		}
		checkErr(err)

		var count int
		err = decodeResp(body, func(sc *scanner) (err error) {
			count, err = decodeCountResp(sc)
			return err
		})
		if err == nil {
			if re := appendCountResp(nil, uint32(count)); !bytes.Equal(re, body) {
				t.Fatalf("count %x re-encodes as %x", body, re)
			}
		}
		checkErr(err)
	})
}
