package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"

	"coolstream/internal/logsys"
	"coolstream/internal/netmodel"
	"coolstream/internal/sim"
)

// The JSONL codec reads and writes logsys.Record without reflection.
// Its contract is encoding/json's: WriteRecords emits the bytes a
// json.Encoder would, and every line decodes to the value (or error)
// json.Unmarshal would give. Lines of the shape WriteRecords produces
// take a single scanning pass; any other line is handed to
// json.Unmarshal, so the fast path never has to reproduce the corner
// cases of the JSON grammar it does not accept.

// Field slots of the decoder, one per exported Record field, in
// declaration order (which is also the encoder's key order).
const (
	fKind = iota
	fAt
	fPeer
	fSession
	fUser
	fPrivateAddr
	fReason
	fContinuity
	fUploadBytes
	fDownloadBytes
	fInPartners
	fOutPartners
	fParentReachable
	fParentTotal
	fNATParentLinks
	fPartnerChanges
	fTrueClass
	fHasTruth
	numFields
)

// fieldKeys holds each slot's key as WriteRecords writes it: the
// quoted field name and the colon.
var fieldKeys = func() (keys [numFields][]byte) {
	names := [numFields]string{
		"Kind", "At", "Peer", "Session", "User", "PrivateAddr", "Reason",
		"Continuity", "UploadBytes", "DownloadBytes", "InPartners",
		"OutPartners", "ParentReachable", "ParentTotal", "NATParentLinks",
		"PartnerChanges", "TrueClass", "HasTruth",
	}
	for f, name := range names {
		keys[f] = []byte(`"` + name + `":`)
	}
	return keys
}()

// fieldOf maps an exact (case-sensitive) field name to its slot, or
// -1. encoding/json also matches keys case-insensitively; such keys
// fall back to it.
func fieldOf(name []byte) int {
	for f, k := range fieldKeys {
		if bytes.Equal(k[1:len(k)-2], name) {
			return f
		}
	}
	return -1
}

// ScanRecords parses a JSONL record stream and hands each record to fn
// in order, without materializing the stream — the .jsonl counterpart
// of logsys.ScanLog. Blank lines are skipped; a malformed line aborts
// with an error carrying its 1-based line number; an error from fn is
// returned unchanged.
func ScanRecords(r io.Reader, fn func(logsys.Record) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 4*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		b := bytes.TrimSpace(sc.Bytes())
		if len(b) == 0 {
			continue
		}
		rec, err := decodeRecord(b)
		if err != nil {
			return fmt.Errorf("trace: line %d: %w", line, err)
		}
		if err := fn(rec); err != nil {
			return err
		}
	}
	return sc.Err()
}

// decodeRecord decodes one JSONL line exactly as json.Unmarshal into a
// fresh Record would.
func decodeRecord(line []byte) (logsys.Record, error) {
	if rec, ok := decodeFast(line); ok {
		return rec, nil
	}
	var rec logsys.Record
	err := json.Unmarshal(line, &rec)
	return rec, err
}

// decodeFast decodes a line in one pass when it is a JSON object whose
// keys are distinct exact Record field names and whose values are of
// the plain forms WriteRecords emits: ASCII strings without escapes,
// in-range integers, true/false, and numbers for Continuity. It
// reports false for anything else, leaving the line to json.Unmarshal.
func decodeFast(b []byte) (rec logsys.Record, ok bool) {
	i := skipSpace(b, 0)
	if i == len(b) || b[i] != '{' {
		return rec, false
	}
	i = skipSpace(b, i+1)
	if i < len(b) && b[i] == '}' {
		return rec, skipSpace(b, i+1) == len(b)
	}
	var seen uint32
	for f := 0; ; f++ {
		// WriteRecords emits the keys in slot order with no spaces, so
		// the expected next key is tried first.
		if f < numFields && bytes.HasPrefix(b[i:], fieldKeys[f]) {
			i += len(fieldKeys[f])
		} else {
			key, n := plainString(b[i:])
			if n == 0 {
				return rec, false
			}
			if f = fieldOf(key); f < 0 {
				return rec, false
			}
			i = skipSpace(b, i+n)
			if i == len(b) || b[i] != ':' {
				return rec, false
			}
			i++
		}
		if seen&(1<<f) != 0 {
			return rec, false
		}
		seen |= 1 << f
		i = skipSpace(b, i)
		n := decodeField(&rec, f, b[i:])
		if n == 0 {
			return rec, false
		}
		i = skipSpace(b, i+n)
		if i == len(b) {
			return rec, false
		}
		switch b[i] {
		case ',':
			i = skipSpace(b, i+1)
		case '}':
			return rec, skipSpace(b, i+1) == len(b)
		default:
			return rec, false
		}
	}
}

// decodeField decodes the value at the start of b into slot f of rec
// and returns the bytes it took, or 0 when the value is not of the
// slot's plain form.
func decodeField(rec *logsys.Record, f int, b []byte) int {
	switch f {
	case fKind:
		s, n := plainString(b)
		if n > 0 {
			rec.Kind = internKind(s)
		}
		return n
	case fReason:
		s, n := plainString(b)
		if n > 0 {
			rec.Reason = internReason(s)
		}
		return n
	case fPrivateAddr:
		v, n := boolLit(b)
		rec.PrivateAddr = v
		return n
	case fHasTruth:
		v, n := boolLit(b)
		rec.HasTruth = v
		return n
	case fContinuity:
		n := numberLen(b)
		if n == 0 {
			return 0
		}
		v, err := strconv.ParseFloat(string(b[:n]), 64)
		if err != nil {
			return 0
		}
		rec.Continuity = v
		return n
	case fTrueClass:
		if len(b) > 0 && b[0] == '-' {
			return 0
		}
		v, n := intLit(b, 9)
		if n > 0 {
			rec.TrueClass = netmodel.UserClass(v)
		}
		return n
	case fAt, fUploadBytes, fDownloadBytes:
		v, n := intLit(b, 64)
		if n > 0 {
			switch f {
			case fAt:
				rec.At = sim.Time(v)
			case fUploadBytes:
				rec.UploadBytes = v
			default:
				rec.DownloadBytes = v
			}
		}
		return n
	}
	v, n := intLit(b, strconv.IntSize)
	if n > 0 {
		*intField(rec, f) = int(v)
	}
	return n
}

// intField returns the int-typed field of rec in slot f.
func intField(rec *logsys.Record, f int) *int {
	switch f {
	case fPeer:
		return &rec.Peer
	case fSession:
		return &rec.Session
	case fUser:
		return &rec.User
	case fInPartners:
		return &rec.InPartners
	case fOutPartners:
		return &rec.OutPartners
	case fParentReachable:
		return &rec.ParentReachable
	case fParentTotal:
		return &rec.ParentTotal
	case fNATParentLinks:
		return &rec.NATParentLinks
	}
	return &rec.PartnerChanges
}

// skipSpace returns the index of the first non-JSON-whitespace byte of
// b at or after i.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\r' || b[i] == '\n') {
		i++
	}
	return i
}

// plainString matches a JSON string at the start of b whose contents
// are printable ASCII without escapes, returning the contents and the
// length including quotes, or n == 0.
func plainString(b []byte) (s []byte, n int) {
	if len(b) == 0 || b[0] != '"' {
		return nil, 0
	}
	for j := 1; j < len(b); j++ {
		switch c := b[j]; {
		case c == '"':
			return b[1:j], j + 1
		case c == '\\' || c < 0x20 || c >= 0x80:
			return nil, 0
		}
	}
	return nil, 0
}

// boolLit matches a true or false literal at the start of b. null,
// which encoding/json treats as "leave unchanged", is not matched.
func boolLit(b []byte) (v bool, n int) {
	switch {
	case bytes.HasPrefix(b, []byte("true")):
		return true, 4
	case bytes.HasPrefix(b, []byte("false")):
		return false, 5
	}
	return false, 0
}

// intLit matches a JSON integer (-?(0|[1-9][0-9]*)) at the start of b
// that fits a signed integer of the given bit size, returning its value
// and length, or n == 0. A fraction or exponent after the digits is
// left for the caller's delimiter check to reject, as encoding/json
// rejects it for an integer field.
func intLit(b []byte, bits uint) (v int64, n int) {
	neg := len(b) > 0 && b[0] == '-'
	if neg {
		n = 1
	}
	start := n
	var u uint64
	for n < len(b) && '0' <= b[n] && b[n] <= '9' {
		if n-start == 19 {
			return 0, 0 // more digits than any int64 has
		}
		u = u*10 + uint64(b[n]-'0')
		n++
	}
	switch digits := n - start; {
	case digits == 0, digits > 1 && b[start] == '0':
		return 0, 0
	}
	limit := uint64(1) << (bits - 1)
	if neg {
		if u > limit {
			return 0, 0
		}
		return -int64(u), n
	}
	if u >= limit {
		return 0, 0
	}
	return int64(u), n
}

// numberLen returns the length of the JSON number at the start of b
// (-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?), or 0.
func numberLen(b []byte) int {
	i := 0
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digitsEnd(b, i)
	default:
		return 0
	}
	if i < len(b) && b[i] == '.' {
		j := digitsEnd(b, i+1)
		if j == i+1 {
			return 0
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digitsEnd(b, i)
		if j == i {
			return 0
		}
		i = j
	}
	return i
}

func digitsEnd(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// internKind returns the EventKind for s, reusing the constant for the
// kinds the simulator emits.
func internKind(s []byte) logsys.EventKind {
	switch string(s) {
	case "join":
		return logsys.KindJoin
	case "startsub":
		return logsys.KindStartSub
	case "ready":
		return logsys.KindMediaReady
	case "leave":
		return logsys.KindLeave
	case "qos":
		return logsys.KindQoS
	case "traffic":
		return logsys.KindTraffic
	case "partner":
		return logsys.KindPartner
	}
	return logsys.EventKind(s)
}

// internReason returns s as a string, reusing one copy of each leave
// reason the simulator emits.
func internReason(s []byte) string {
	switch string(s) {
	case "":
		return ""
	case "user":
		return "user"
	case "join-timeout":
		return "join-timeout"
	case "stall-reenter":
		return "stall-reenter"
	case "program-end":
		return "program-end"
	}
	return string(s)
}

// appendRecord appends rec's JSON form and a newline to dst, byte for
// byte what json.Encoder.Encode writes: every field in declaration
// order, floats in encoding/json's format, strings HTML-escaped.
func appendRecord(dst []byte, rec *logsys.Record) ([]byte, error) {
	dst = append(dst, `{"Kind":`...)
	dst = appendString(dst, string(rec.Kind))
	dst = append(dst, `,"At":`...)
	dst = strconv.AppendInt(dst, int64(rec.At), 10)
	dst = append(dst, `,"Peer":`...)
	dst = strconv.AppendInt(dst, int64(rec.Peer), 10)
	dst = append(dst, `,"Session":`...)
	dst = strconv.AppendInt(dst, int64(rec.Session), 10)
	dst = append(dst, `,"User":`...)
	dst = strconv.AppendInt(dst, int64(rec.User), 10)
	dst = append(dst, `,"PrivateAddr":`...)
	dst = strconv.AppendBool(dst, rec.PrivateAddr)
	dst = append(dst, `,"Reason":`...)
	dst = appendString(dst, rec.Reason)
	dst = append(dst, `,"Continuity":`...)
	dst, err := appendFloat(dst, rec.Continuity)
	if err != nil {
		return dst, err
	}
	dst = append(dst, `,"UploadBytes":`...)
	dst = strconv.AppendInt(dst, rec.UploadBytes, 10)
	dst = append(dst, `,"DownloadBytes":`...)
	dst = strconv.AppendInt(dst, rec.DownloadBytes, 10)
	dst = append(dst, `,"InPartners":`...)
	dst = strconv.AppendInt(dst, int64(rec.InPartners), 10)
	dst = append(dst, `,"OutPartners":`...)
	dst = strconv.AppendInt(dst, int64(rec.OutPartners), 10)
	dst = append(dst, `,"ParentReachable":`...)
	dst = strconv.AppendInt(dst, int64(rec.ParentReachable), 10)
	dst = append(dst, `,"ParentTotal":`...)
	dst = strconv.AppendInt(dst, int64(rec.ParentTotal), 10)
	dst = append(dst, `,"NATParentLinks":`...)
	dst = strconv.AppendInt(dst, int64(rec.NATParentLinks), 10)
	dst = append(dst, `,"PartnerChanges":`...)
	dst = strconv.AppendInt(dst, int64(rec.PartnerChanges), 10)
	dst = append(dst, `,"TrueClass":`...)
	dst = strconv.AppendUint(dst, uint64(rec.TrueClass), 10)
	dst = append(dst, `,"HasTruth":`...)
	dst = strconv.AppendBool(dst, rec.HasTruth)
	return append(dst, "}\n"...), nil
}

// appendString appends s as a JSON string. Printable ASCII without
// characters encoding/json escapes is copied between quotes; anything
// else goes through json.Marshal, which owns the escaping rules
// (HTML-safe <, >, &; U+2028/U+2029; invalid UTF-8 as U+FFFD).
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20, c >= 0x7f, c == '"', c == '\\', c == '<', c == '>', c == '&':
			q, _ := json.Marshal(s) // marshaling a string cannot fail
			return append(dst, q...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// appendFloat appends v as encoding/json formats a float64: the
// shortest representation, in 'e' form below 1e-6 and from 1e21 up
// with a two-digit exponent trimmed to one ("e-07" → "e-7"). NaN and
// ±Inf have no JSON form; the error is json.Marshal's.
func appendFloat(dst []byte, v float64) ([]byte, error) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		_, err := json.Marshal(v)
		return dst, err
	}
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, v, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}
