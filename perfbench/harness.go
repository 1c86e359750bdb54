package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	apq "repro"
	"repro/internal/server"
)

// node is one in-process apq server listening on loopback.
type node struct {
	srv  *apq.Server
	hs   *http.Server
	url  string
	done chan struct{}
}

// listen reserves a loopback port before the server exists, so federated
// nodes can name each other's URLs in their configuration.
func listen() (net.Listener, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", fmt.Errorf("listen: %w", err)
	}
	return ln, "http://" + ln.Addr().String(), nil
}

// startNode serves srv on ln. With a tracer, the mounted handler is wrapped
// in a span.
func startNode(name string, srv *apq.Server, ln net.Listener, url string, tr *tracer) *node {
	h := srv.Handler()
	if tr != nil {
		h = tr.wrapHandler(name, h)
	}
	n := &node{srv: srv, hs: &http.Server{Handler: h}, url: url, done: make(chan struct{})}
	go func() {
		defer close(n.done)
		n.hs.Serve(ln)
	}()
	return n
}

// close stops the listener, waits for the serve loop, then closes the server.
func (n *node) close() {
	n.hs.Close()
	<-n.done
	n.srv.Close()
}

// ledger counts operations attempted and failed and keeps the first failure.
type ledger struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	first     string
}

func (l *ledger) record(err error, what string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.attempted++
	if err == nil {
		return true
	}
	l.failed++
	if l.first == "" {
		l.first = fmt.Sprintf("%s: %v", what, err)
	}
	return false
}

// client is one closed-loop HTTP client.
type client struct {
	hc  *http.Client
	buf bytes.Buffer
}

func newClient() *client {
	return &client{hc: &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true},
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// encode writes body as JSON into the client's buffer and returns it; the
// bytes stay valid until the next encode. Callers encode before they start a
// round trip's clock, so the timings hold only the HTTP exchange.
func (c *client) encode(body any) ([]byte, error) {
	c.buf.Reset()
	if err := json.NewEncoder(&c.buf).Encode(body); err != nil {
		return nil, err
	}
	return c.buf.Bytes(), nil
}

// post sends an encoded JSON body and returns the reply body; a non-200
// reply is an error that carries the reply.
func (c *client) post(url string, body []byte, hdr map[string]string) ([]byte, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("transport: %w", err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, fmt.Errorf("transport: reading reply: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(data)))
	}
	return data, nil
}

// mutate posts one encoded append or truncate and decodes its reply.
func (c *client) mutate(url string, body []byte) (server.MutationResponse, error) {
	var mr server.MutationResponse
	data, err := c.post(url, body, nil)
	if err != nil {
		return mr, err
	}
	if err := json.Unmarshal(data, &mr); err != nil {
		return mr, fmt.Errorf("decode: %w", err)
	}
	return mr, nil
}

// statsDoc is the part of GET /stats the benchmark reads.
type statsDoc struct {
	QueryRequests     int64 `json:"query_requests"`
	CoalescedRequests int64 `json:"coalesced_requests"`
	ResultBytesSent   int64 `json:"result_bytes_sent"`
	Cache             struct {
		Hits        int64 `json:"hits"`
		Misses      int64 `json:"misses"`
		Evictions   int64 `json:"evictions"`
		DataReopens int64 `json:"data_reopens"`
	} `json:"cache"`
	PerShard []struct {
		VirtualNowNs float64 `json:"virtual_now_ns"`
		Recycler     struct {
			BufferHits   int64 `json:"buffer_hits"`
			BufferMisses int64 `json:"buffer_misses"`
		} `json:"recycler"`
		Compile struct {
			Full    int64 `json:"full"`
			Derived int64 `json:"derived"`
		} `json:"compile"`
	} `json:"per_shard"`
	Store *struct {
		RecordsWritten int64 `json:"records_written"`
	} `json:"store"`
	Cluster *struct {
		ServedLocal int64 `json:"served_local"`
		Forwarded   int64 `json:"forwarded"`
	} `json:"cluster"`
}

// counters flattens the /stats fields into named totals so snapshots of
// several nodes add up and subtract.
type counters map[string]float64

func fetchCounters(c *client, url string) (counters, error) {
	resp, err := c.hc.Get(url + "/stats")
	if err != nil {
		return nil, fmt.Errorf("stats: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("stats: status %d", resp.StatusCode)
	}
	var d statsDoc
	if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
		return nil, fmt.Errorf("stats: %w", err)
	}
	out := counters{
		"query_requests":     float64(d.QueryRequests),
		"coalesced_requests": float64(d.CoalescedRequests),
		"result_bytes_sent":  float64(d.ResultBytesSent),
		"cache_hits":         float64(d.Cache.Hits),
		"cache_misses":       float64(d.Cache.Misses),
		"evictions":          float64(d.Cache.Evictions),
		"data_reopens":       float64(d.Cache.DataReopens),
	}
	for _, sh := range d.PerShard {
		out["virtual_now_ns"] += sh.VirtualNowNs
		out["buffer_hits"] += float64(sh.Recycler.BufferHits)
		out["buffer_misses"] += float64(sh.Recycler.BufferMisses)
		out["compile_full"] += float64(sh.Compile.Full)
		out["compile_derived"] += float64(sh.Compile.Derived)
	}
	if d.Store != nil {
		out["records_written"] = float64(d.Store.RecordsWritten)
	}
	if d.Cluster != nil {
		out["served_local"] = float64(d.Cluster.ServedLocal)
		out["forwarded"] = float64(d.Cluster.Forwarded)
	}
	return out, nil
}

// snapshot sums the counters of every node.
func snapshot(c *client, nodes []*node) (counters, error) {
	total := counters{}
	for _, n := range nodes {
		one, err := fetchCounters(c, n.url)
		if err != nil {
			return nil, err
		}
		for k, v := range one {
			total[k] += v
		}
	}
	return total, nil
}

func (a counters) sub(b counters) counters {
	out := counters{}
	for k, v := range a {
		out[k] = v - b[k]
	}
	return out
}

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// quantile returns the nearest-rank q-quantile of vals (0 when empty).
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := slices.Clone(vals)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(vals []float64) float64 { return quantile(vals, 0.5) }

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var s float64
	for _, v := range vals {
		s += v
	}
	return s / float64(len(vals))
}

func geomean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var s float64
	for _, v := range vals {
		s += math.Log(v)
	}
	return math.Exp(s / float64(len(vals)))
}

// peakRSSMB reads the process's VmHWM in MB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("VmHWM not found in /proc/self/status")
}
