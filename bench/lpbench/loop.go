package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/server"
)

// instance is one in-process server on a loopback listener, with a client
// limited to two connections: the load comes from this process alone.
type instance struct {
	srv    *http.Server
	base   string
	client *http.Client
	served chan struct{} // closed when Serve returns
}

func startInstance() (*instance, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	in := &instance{
		srv:  &http.Server{Handler: server.New(server.Config{AccessLog: io.Discard}).Handler()},
		base: "http://" + ln.Addr().String(),
		client: &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2},
			Timeout:   60 * time.Second,
		},
		served: make(chan struct{}),
	}
	go func() {
		defer close(in.served)
		in.srv.Serve(ln)
	}()
	return in, nil
}

func (in *instance) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	in.srv.Shutdown(ctx)
	<-in.served
	in.client.CloseIdleConnections()
}

// reply is one HTTP exchange as the client saw it.
type reply struct {
	body  []byte
	cache string // X-Cache
	ms    float64
}

// post sends one JSON request and returns the reply; a transport error,
// a non-2xx status, a missing X-Trace-Id or a body that is not JSON is an
// error.
func (in *instance) post(path string, body []byte) (reply, error) {
	return in.do(http.MethodPost, path, body)
}

func (in *instance) do(method, path string, body []byte) (reply, error) {
	req, err := http.NewRequest(method, in.base+path, bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := in.client.Do(req)
	if err != nil {
		return reply{}, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rep := reply{body: b, cache: resp.Header.Get("X-Cache"), ms: float64(time.Since(start).Nanoseconds()) / 1e6}
	switch {
	case err != nil:
		return rep, fmt.Errorf("%s %s: reading body: %w", method, path, err)
	case resp.StatusCode < 200 || resp.StatusCode > 299:
		return rep, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(b))
	case resp.Header.Get("X-Trace-Id") == "":
		return rep, fmt.Errorf("%s %s: response lacks X-Trace-Id", method, path)
	case !json.Valid(b):
		return rep, fmt.Errorf("%s %s: body is not JSON", method, path)
	}
	rep.body = bytes.TrimSuffix(b, []byte("\n"))
	return rep, nil
}

// counters reads the server registry's /metrics export.
func (in *instance) counters() (map[string]any, error) {
	rep, err := in.do(http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, err
	}
	var m map[string]any
	return m, json.Unmarshal(rep.body, &m)
}

// stream deals a workload's ops to the closed-loop clients, building each
// round when the first client reaches it. It ends after a number of whole
// rounds, or, with a time limit instead, at the first op claimed after it.
// With a prober, it probes the host (calib.go) when the loop starts and
// ends, and at each round boundary once probeEvery has passed, after
// waiting for every client to be idle. The probes cut the timed phase
// into segments, each scaled by its own two probes.
type stream struct {
	mu     sync.Mutex
	idle   sync.Cond // signalled when an op finishes or a probe ends
	w      *workload
	g      *gen
	ops    []op // current round
	base   int  // index of ops[0]
	next   int
	round  int
	rounds int           // 0: no round limit
	limit  time.Duration // 0: no time limit
	start  time.Time

	inflight int
	probing  bool
	pr       *prober // nil: no probes, one segment
	probes   []float64
	segs     []segment
	segStart time.Time
	segCPU   time.Duration
}

// segment is the timed phase between two host probes: its wall time and
// the process CPU time spent in it.
type segment struct {
	wall, cpu time.Duration
}

const probeEvery = 500 * time.Millisecond

func newStream(w *workload, g *gen, rounds int, limit time.Duration, pr *prober) *stream {
	s := &stream{w: w, g: g, ops: w.round(g, 0), rounds: rounds, limit: limit, pr: pr}
	s.idle.L = &s.mu
	return s
}

// claim hands out the next op and the segment it runs in.
func (s *stream) claim() (int, *op, int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.probing {
		s.idle.Wait()
	}
	if s.limit > 0 && time.Since(s.start) >= s.limit {
		return 0, nil, 0, false
	}
	i := s.next
	if i-s.base == len(s.ops) {
		if s.round+1 == s.rounds {
			return 0, nil, 0, false
		}
		if s.pr != nil && time.Since(s.segStart) >= probeEvery {
			s.probing = true
			for s.inflight > 0 {
				s.idle.Wait()
			}
			s.cut()
			s.probing = false
			s.idle.Broadcast()
		}
		s.round++
		s.base, s.ops = i, s.w.round(s.g, s.round)
	}
	s.next++
	s.inflight++
	return i, &s.ops[i-s.base], len(s.segs), true
}

// finish marks a claimed op done.
func (s *stream) finish() {
	s.mu.Lock()
	s.inflight--
	s.idle.Broadcast()
	s.mu.Unlock()
}

// cut closes the current segment, probes the host and opens the next.
func (s *stream) cut() {
	s.segs = append(s.segs, segment{wall: time.Since(s.segStart), cpu: cpuTime() - s.segCPU})
	if s.pr != nil {
		s.probes = append(s.probes, s.pr.probe())
	}
	s.segStart, s.segCPU = time.Now(), cpuTime()
}

// done is one finished op; a sampled op keeps a copy of itself and its
// result bodies for the post-run checks.
type done struct {
	idx   int
	class string
	seg   int
	ms    float64
	err   error
	op    *op
	keep  [][]byte
}

// tally is what a closed loop gathered. Only failed and sampled ops are
// kept whole; the rest leave a latency, so the harness's own memory stays
// out of peak_rss_mb.
type tally struct {
	n      int
	ms     map[string][]lat // latencies of the successful ops by class
	failed []done
	kept   []done // sampled ops in index order
	segs   []segment
	probes []float64 // len(segs)+1 readings, or none
}

// lat is one op's latency and the segment it ran in.
type lat struct {
	ms  float64
	seg int
}

func (t *tally) add(d done) {
	t.n++
	switch {
	case d.err != nil:
		t.failed = append(t.failed, d)
	default:
		t.ms[d.class] = append(t.ms[d.class], lat{d.ms, d.seg})
		if d.keep != nil {
			t.kept = append(t.kept, d)
		}
	}
}

// scale is the factor from segment seg's times to reference-host times:
// calibRefMs over the mean of the probes around it. Unscaled (or without
// probes) it is 1.
func (t *tally) scale(seg int, scaled bool) float64 {
	if !scaled || len(t.probes) < seg+2 {
		return 1
	}
	return calibRefMs / ((t.probes[seg] + t.probes[seg+1]) / 2)
}

// latencies returns every successful op's latency (ms).
func (t *tally) latencies(scaled bool) []float64 {
	var all []float64
	for _, ls := range t.ms {
		for _, l := range ls {
			all = append(all, l.ms*t.scale(l.seg, scaled))
		}
	}
	return all
}

// times returns the wall and CPU time of the whole phase.
func (t *tally) times(scaled bool) (wall, cpu time.Duration) {
	for i, s := range t.segs {
		f := t.scale(i, scaled)
		wall += time.Duration(float64(s.wall) * f)
		cpu += time.Duration(float64(s.cpu) * f)
	}
	return wall, cpu
}

// closedLoop runs the stream with the workload's clients, each sending
// its next op only after the previous one completed.
func closedLoop(s *stream, exec func(*op) done) *tally {
	var mu sync.Mutex
	all := &tally{ms: map[string][]lat{}}
	if s.pr != nil {
		s.probes = append(s.probes, s.pr.probe())
	}
	s.start = time.Now()
	s.segStart, s.segCPU = s.start, cpuTime()
	var wg sync.WaitGroup
	for c := 0; c < s.w.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mine := &tally{ms: map[string][]lat{}}
			for {
				i, o, seg, ok := s.claim()
				if !ok {
					break
				}
				d := exec(o)
				s.finish()
				d.idx, d.class, d.seg = i, o.class, seg
				if d.keep != nil {
					c := *o // not o itself: that would keep its whole round alive
					d.op = &c
				}
				mine.add(d)
			}
			mu.Lock()
			all.n += mine.n
			for c, ls := range mine.ms {
				all.ms[c] = append(all.ms[c], ls...)
			}
			all.failed = append(all.failed, mine.failed...)
			all.kept = append(all.kept, mine.kept...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	s.cut()
	all.segs, all.probes = s.segs, s.probes
	sort.Slice(all.kept, func(i, j int) bool { return all.kept[i].idx < all.kept[j].idx })
	return all
}
