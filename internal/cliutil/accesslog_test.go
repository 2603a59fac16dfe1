package cliutil

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// pinLogNow fixes the access-log clock for the rest of the test.
func pinLogNow(t *testing.T, at time.Time) {
	t.Helper()
	orig := logNow
	logNow = func() time.Time { return at }
	t.Cleanup(func() { logNow = orig })
}

// mapLine is the encoder LogAccess replaced: the fields in a map, keys
// sorted, every key and value marshaled by encoding/json. It is the
// reference the typed lines must match byte for byte.
func mapLine(ts time.Time, rec AccessRecord) string {
	fields := map[string]any{
		"method":     rec.Method,
		"endpoint":   rec.Endpoint,
		"path":       rec.Path,
		"status":     rec.Status,
		"latency_us": rec.LatencyUS,
		"bytes":      rec.Bytes,
		"cache":      rec.Cache,
		"degraded":   rec.Degraded,
		"trace":      rec.Trace,
	}
	keys := make([]string, 0, len(fields))
	for k := range fields {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b bytes.Buffer
	b.WriteString(`{"ts":"` + ts.UTC().Format("2006-01-02T15:04:05.000Z") + `","event":"access"`)
	for _, k := range keys {
		kb, _ := json.Marshal(k)
		vb, _ := json.Marshal(fields[k])
		b.WriteByte(',')
		b.Write(kb)
		b.WriteByte(':')
		b.Write(vb)
	}
	b.WriteString("}\n")
	return b.String()
}

func TestLogJSONFormat(t *testing.T) {
	at := time.Date(2026, 8, 8, 12, 30, 45, 123_000_000, time.UTC)
	pinLogNow(t, at)
	rec := AccessRecord{
		Method:    "POST",
		Endpoint:  "estimate",
		Path:      "/v1/estimate",
		Status:    200,
		LatencyUS: 42,
		Bytes:     517,
		Cache:     "hit",
		Degraded:  false,
		Trace:     "0123456789abcdef",
	}
	var b bytes.Buffer
	LogAccess(&b, rec)
	got := b.String()
	want := `{"ts":"2026-08-08T12:30:45.123Z","event":"access","bytes":517,"cache":"hit","degraded":false,"endpoint":"estimate","latency_us":42,"method":"POST","path":"/v1/estimate","status":200,"trace":"0123456789abcdef"}` + "\n"
	if got != want {
		t.Fatalf("access line:\n got %q\nwant %q", got, want)
	}
	if ref := mapLine(at, rec); got != ref {
		t.Fatalf("access line differs from the map encoder:\n got %q\nwant %q", got, ref)
	}
	// And it must be valid JSON.
	var m map[string]any
	if err := json.Unmarshal([]byte(got), &m); err != nil {
		t.Fatalf("line is not valid JSON: %v", err)
	}
}

// TestLogAccessMatchesMapEncoder checks random records, strings that need
// escaping included, against the map encoder LogAccess replaced.
func TestLogAccessMatchesMapEncoder(t *testing.T) {
	at := time.Date(2026, 1, 2, 3, 4, 5, 6_789_000, time.FixedZone("x", 3600))
	pinLogNow(t, at)
	pieces := []string{"", "/v1/estimate", "hit", "-", "<", ">", "&", `"`, `\`, "\x00", "\x1f", "\x7f",
		"\xff", "é", "\u2028", "\u2029", "\ufffd", "a b", "%2F", "日本"}
	rng := rand.New(rand.NewSource(3))
	str := func() string {
		var sb strings.Builder
		for n := rng.Intn(4); n > 0; n-- {
			sb.WriteString(pieces[rng.Intn(len(pieces))])
		}
		return sb.String()
	}
	for i := 0; i < 2000; i++ {
		rec := AccessRecord{
			Method: str(), Endpoint: str(), Path: str(), Status: rng.Intn(600) - 50,
			LatencyUS: rng.Int63() >> rng.Intn(63), Bytes: rng.Int63n(1 << 20), Cache: str(),
			Degraded: rng.Intn(2) == 0, Trace: str(),
		}
		var b bytes.Buffer
		LogAccess(&b, rec)
		if want := mapLine(at, rec); b.String() != want {
			t.Fatalf("record %+v:\n got %q\nwant %q", rec, b.String(), want)
		}
	}
}

func TestLogAccessNilWriter(t *testing.T) {
	LogAccess(nil, AccessRecord{Method: "GET"}) // must not panic
}

func TestLogAccessDoesNotAllocate(t *testing.T) {
	rec := AccessRecord{Method: "POST", Endpoint: "estimate", Path: "/v1/estimate", Status: 200,
		LatencyUS: 35, Bytes: 900, Cache: "hit", Trace: "0123456789abcdef"}
	LogAccess(io.Discard, rec) // size the reused buffer
	if n := testing.AllocsPerRun(100, func() { LogAccess(io.Discard, rec) }); n != 0 {
		t.Fatalf("LogAccess allocates %v times per line, want 0", n)
	}
}

func TestLogJSONConcurrentLinesDoNotInterleave(t *testing.T) {
	var b bytes.Buffer
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				LogAccess(&b, AccessRecord{Method: "GET", Endpoint: fmt.Sprint("g", g), Status: i,
					Path: strings.Repeat("/x", i%7)})
			}
		}(g)
	}
	wg.Wait()
	lines := strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n")
	if len(lines) != 800 {
		t.Fatalf("got %d lines, want 800", len(lines))
	}
	seen := map[string]bool{}
	for _, ln := range lines {
		var m struct {
			Endpoint string `json:"endpoint"`
			Status   int    `json:"status"`
			Path     string `json:"path"`
		}
		if err := json.Unmarshal([]byte(ln), &m); err != nil {
			t.Fatalf("interleaved/corrupt line %q: %v", ln, err)
		}
		if m.Path != strings.Repeat("/x", m.Status%7) {
			t.Fatalf("line %q mixes two records", ln)
		}
		seen[fmt.Sprint(m.Endpoint, m.Status)] = true
	}
	if len(seen) != 800 {
		t.Fatalf("%d distinct records, want 800", len(seen))
	}
}

// FuzzAppendJSONString: the appender's output is json.Marshal's for any
// string, valid UTF-8 or not.
func FuzzAppendJSONString(f *testing.F) {
	for _, s := range []string{"", "plain", "/v1/estimate", "<script>&", `q"uote\`, "\x00\x1f\x7f",
		"\xff\xfe", "\u2028\u2029", "é日本", "\ufffd"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONString([]byte("prefix"), s); string(got) != "prefix"+string(want) {
			t.Fatalf("appendJSONString(%q) = %q, want %q", s, got[len("prefix"):], want)
		}
	})
}
