package cliutil

import (
	"encoding/json"
	"io"
	"strconv"
	"sync"
	"time"
)

// logNow is a test seam: access-log timestamps come from here.
var logNow = time.Now

// AccessRecord is one served request as the access log records it.
type AccessRecord struct {
	Method    string
	Endpoint  string // the route label, not the raw path
	Path      string // client-controlled
	Status    int
	LatencyUS int64
	Bytes     int64  // response body bytes written
	Cache     string // result-cache disposition, "-" when none
	Degraded  bool
	Trace     string
}

// logMu serializes writes so concurrent requests (one goroutine per HTTP
// request in lpserverd) never interleave bytes within a line, and guards
// logBuf, the line buffer every write reuses. Each line is emitted as a
// single Write call, which is already atomic for os.File on every
// platform we care about; the mutex additionally covers writers without
// that guarantee (bytes.Buffer in tests).
var (
	logMu  sync.Mutex
	logBuf []byte
)

// maxKeptLogBuf bounds the buffer kept between lines, so one request
// with a huge path does not pin its line's memory for the process life.
const maxKeptLogBuf = 64 << 10

// LogAccess writes rec to w as one machine-parseable line: a flat JSON
// object with "ts" (RFC 3339, millisecond precision, UTC) first,
// "event":"access" second, and the record's nine fields in sorted key
// order (bytes, cache, degraded, endpoint, latency_us, method, path,
// status, trace), terminated by a newline. Sorted keys make the lines
// diff- and grep-stable: the same request always serializes the same
// way, so `grep '"endpoint":"estimate"'` and byte-level golden tests
// both work. Strings are escaped exactly as encoding/json escapes them.
// A nil w writes nothing.
func LogAccess(w io.Writer, rec AccessRecord) {
	if w == nil {
		return
	}
	logMu.Lock()
	defer logMu.Unlock()
	b := append(logBuf[:0], `{"ts":"`...)
	b = logNow().UTC().AppendFormat(b, "2006-01-02T15:04:05.000Z")
	b = append(b, `","event":"access","bytes":`...)
	b = strconv.AppendInt(b, rec.Bytes, 10)
	b = append(b, `,"cache":`...)
	b = appendJSONString(b, rec.Cache)
	b = append(b, `,"degraded":`...)
	b = strconv.AppendBool(b, rec.Degraded)
	b = append(b, `,"endpoint":`...)
	b = appendJSONString(b, rec.Endpoint)
	b = append(b, `,"latency_us":`...)
	b = strconv.AppendInt(b, rec.LatencyUS, 10)
	b = append(b, `,"method":`...)
	b = appendJSONString(b, rec.Method)
	b = append(b, `,"path":`...)
	b = appendJSONString(b, rec.Path)
	b = append(b, `,"status":`...)
	b = strconv.AppendInt(b, int64(rec.Status), 10)
	b = append(b, `,"trace":`...)
	b = appendJSONString(b, rec.Trace)
	b = append(b, "}\n"...)
	w.Write(b)
	if cap(b) <= maxKeptLogBuf {
		logBuf = b
	}
}

// appendJSONString appends s as json.Marshal encodes it. A string of
// printable ASCII without '"', '\\', '<', '>' or '&' — every string the
// server itself produces — needs no escaping and is copied between
// quotes. Any other string, such as a request path a client chose, goes
// through json.Marshal, so its escaping (control bytes, invalid UTF-8,
// U+2028/U+2029, HTML-sensitive characters) is encoding/json's own.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			enc, _ := json.Marshal(s) // marshaling a string cannot fail
			return append(b, enc...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
