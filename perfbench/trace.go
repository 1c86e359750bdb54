package main

// Spans recorded around the calls the benchmark makes: the mounted HTTP
// handlers, the client round trip and decode, set-up phases, and the
// replayed layer calls. They are kept in memory and written to one file
// when the run ends.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
)

// entryNode names the node every client sends to.
const entryNode = "a"

// Headers carrying a request's identity from client to handler span.
const (
	hdrReq    = "X-Bench-Req"
	hdrParent = "X-Bench-Parent"
	hdrKey    = "X-Bench-Key"
)

type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req,omitempty"`
	Name   string `json:"name"`
	Node   string `json:"node,omitempty"`
	Key    string `json:"key,omitempty"`   // query identity, links a forwarded handler span to its entry span
	Phase  string `json:"phase,omitempty"` // replay phase: explore or serve
	Rows   int64  `json:"rows,omitempty"`  // tuples a kernel span processed
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer records spans. A nil tracer records nothing, so untraced runs pay
// only a nil check.
type tracer struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

func (t *tracer) at(ts time.Time) int64 { return int64(ts.Sub(t.t0)) }

func (t *tracer) now() int64 { return t.at(time.Now()) }

func (t *tracer) add(s span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// do runs f inside a span named name.
func (t *tracer) do(name string, parent int64, f func()) {
	if t == nil {
		f()
		return
	}
	s := span{ID: t.id(), Parent: parent, Name: name}
	start := time.Now()
	f()
	s.Start, s.End = t.at(start), t.at(time.Now())
	t.add(s)
}

// reqKey names a query request for linking spans across nodes.
func reqKey(r *server.QueryRequest) string {
	b, _ := json.Marshal(struct {
		T  string
		Q  int
		S  *server.SelectSumSpec
		RS *server.SelectSumSpec
	}{r.Tenant, r.Query, r.SelectSum, r.SelectRows})
	return string(b)
}

// wrapHandler puts a span around every request a node's handler serves.
// Requests forwarded by a peer carry no benchmark headers; their key is read
// from the body so the span can be linked to the entry node's span later.
func (t *tracer) wrapHandler(node string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s := span{ID: t.id(), Name: "server.other", Node: node, Key: r.Header.Get(hdrKey)}
		if r.URL.Path == "/query" {
			s.Name = "server.handler"
			s.Req, _ = strconv.ParseInt(r.Header.Get(hdrReq), 10, 64)
			s.Parent, _ = strconv.ParseInt(r.Header.Get(hdrParent), 10, 64)
			if s.Key == "" {
				body, err := io.ReadAll(r.Body)
				if err == nil {
					var req server.QueryRequest
					if json.Unmarshal(body, &req) == nil {
						s.Key = reqKey(&req)
					}
				}
				r.Body = io.NopCloser(bytes.NewReader(body))
			}
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		s.Start, s.End = t.at(start), t.at(time.Now())
		t.add(s)
	})
}

// finish links forwarded handler spans to the entry span that contains them
// and computes every span's self time.
func (t *tracer) finish() {
	t.mu.Lock()
	defer t.mu.Unlock()
	byKey := map[string][]int{}
	for i, s := range t.spans {
		if s.Name == "server.handler" && s.Node == entryNode {
			byKey[s.Key] = append(byKey[s.Key], i)
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		if s.Name != "server.handler" || s.Node == entryNode || s.Parent != 0 {
			continue
		}
		for _, j := range byKey[s.Key] {
			if e := t.spans[j]; e.Start <= s.Start && e.End >= s.End {
				s.Parent, s.Req = e.ID, e.Req
				break
			}
		}
	}
	children := map[int64][]int{}
	for i, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		var iv [][2]int64
		for _, c := range children[s.ID] {
			lo, hi := max(t.spans[c].Start, s.Start), min(t.spans[c].End, s.End)
			if hi > lo {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		s.Self = s.End - s.Start - covered(iv)
	}
}

// covered is the length of the union of intervals.
func covered(iv [][2]int64) int64 {
	slices.SortFunc(iv, func(a, b [2]int64) int {
		switch {
		case a[0] < b[0]:
			return -1
		case a[0] > b[0]:
			return 1
		}
		return 0
	})
	var total, end int64
	for _, v := range iv {
		lo := max(v[0], end)
		if v[1] > lo {
			total += v[1] - lo
		}
		end = max(end, v[1])
	}
	return total
}

// filter returns the spans accepted by keep.
func (t *tracer) filter(keep func(span) bool) []span {
	var out []span
	for _, s := range t.spans {
		if keep(s) {
			out = append(out, s)
		}
	}
	return out
}

// named returns the durations, in unit, of the spans called name.
func (t *tracer) named(name string, unit time.Duration) []float64 {
	var out []float64
	for _, s := range t.filter(func(s span) bool { return s.Name == name }) {
		out = append(out, float64(s.dur())/float64(unit))
	}
	return out
}

// perRow returns ns per processed row of the spans called name.
func (t *tracer) perRow(name string) []float64 {
	var out []float64
	for _, s := range t.filter(func(s span) bool { return s.Name == name && s.Rows > 0 }) {
		out = append(out, float64(s.dur())/float64(s.Rows))
	}
	return out
}

// write stores the spans as JSON lines and returns the file's path.
func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
