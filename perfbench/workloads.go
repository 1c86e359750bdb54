package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"sync"
	"time"

	apq "repro"
	"repro/internal/exec"
	"repro/internal/server"
)

// Every workload serves TPC-H (and, for hot_mix, TPC-DS) generated at this
// scale factor and generator seed; --seed drives the request streams, spec
// draws and mutation batches.
const (
	scaleFactor = 1.0
	genSeed     = 42
	clients     = 2
	setupReps   = 5
	batchRows   = 600 // rows per appended lineitem batch
	probePairs  = 50  // append/truncate pairs after hot_mix and cold_adhoc windows

	sampleRequests = 400 // requests of client 0 kept for the replay
)

// opts are one run's command-line settings.
type opts struct {
	workload string
	seed     int64
	window   time.Duration
	tr       *tracer
	workDir  string // scratch space inside the checkout
}

// outcome is everything a workload measured.
type outcome struct {
	led ledger

	setupS, loadS, convergeS []float64 // one value per set-up repetition
	dsLoadS                  float64   // TPC-DS generation, hot_mix only

	windowS     float64
	lat         []float64 // ms per completed query request
	resultBytes int64
	mutLat      []float64 // ms per append/truncate
	mutations   int       // mutations inside the timed window
	conv        episodes
	speedups    map[string]float64 // latest converged speedup per fingerprint
	reconverge  []float64          // non-converged replies per fingerprint after a mutation

	window, withProbe counters // /stats deltas: timed window; window start to after the probe

	sample []server.QueryRequest // client 0's first requests, replayed when tracing
	replay replayInput
}

func newOutcome() *outcome {
	return &outcome{speedups: map[string]float64{}, conv: episodes{open: map[string]*episode{}}}
}

// reply is one decoded /query reply.
type reply struct {
	payload *apq.ResultPayload
	latMs   float64
	bytes   int
}

// query sends req and decodes the APQRESULT reply. With a tracer, the round
// trip and the decode are spans and the request carries its identity to the
// handler span.
func (c *client) query(tr *tracer, url string, req *server.QueryRequest) (reply, error) {
	var hdr map[string]string
	rt := tr.id()
	if tr != nil {
		hdr = map[string]string{hdrReq: strconv.FormatInt(rt, 10), hdrParent: strconv.FormatInt(rt, 10), hdrKey: reqKey(req)}
	}
	body, err := c.encode(req)
	if err != nil {
		return reply{}, err
	}
	sent := time.Now()
	data, err := c.post(url+"/query", body, hdr)
	got := time.Now()
	r := reply{latMs: float64(got.Sub(sent)) / 1e6, bytes: len(data)}
	if tr != nil {
		tr.add(span{ID: rt, Req: rt, Name: "client.roundtrip", Key: hdr[hdrKey], Start: tr.at(sent), End: tr.at(got)})
	}
	if err != nil {
		return r, err
	}
	r.payload, err = apq.DecodeResult(data)
	if tr != nil {
		tr.add(span{ID: tr.id(), Req: rt, Name: "client.decode", Start: tr.at(got), End: tr.at(time.Now())})
	}
	if err != nil {
		return r, fmt.Errorf("decode: %w", err)
	}
	return r, nil
}

// episode is one convergence as the clients saw it.
type episode struct {
	ms   float64 // summed round trips of its requests
	runs int
}

// episodes follows convergences per fingerprint: an episode opens at the
// first non-converged reply and closes at the next converged reply. It
// counts the requests in between and sums their round trips: the serving
// time a convergence costs, whatever the rate its requests arrive at. For a
// sequential client that is the wall time from first request to converged.
type episodes struct {
	mu   sync.Mutex
	open map[string]*episode
	ms   []float64
	runs []float64
}

func (e *episodes) observe(key string, r reply) {
	e.mu.Lock()
	defer e.mu.Unlock()
	ep := e.open[key]
	if r.payload.Meta.State == "converged" {
		if ep != nil {
			e.ms = append(e.ms, ep.ms+r.latMs)
			e.runs = append(e.runs, float64(ep.runs+1))
			delete(e.open, key)
		}
		return
	}
	if ep == nil {
		ep = &episode{}
		e.open[key] = ep
	}
	ep.ms += r.latMs
	ep.runs++
}

// record accounts one query reply: failures are counted, successes timed.
func (o *outcome) record(r reply, err error, what string, keep bool) bool {
	if !o.led.record(err, what) {
		return false
	}
	if keep {
		o.led.mu.Lock()
		o.lat = append(o.lat, r.latMs)
		o.resultBytes += int64(r.bytes)
		o.led.mu.Unlock()
	}
	return true
}

func (o *outcome) noteSpeedup(key string, r reply) {
	if r.payload.Meta.State == "converged" && r.payload.Meta.Speedup > 0 {
		o.led.mu.Lock()
		o.speedups[key] = r.payload.Meta.Speedup
		o.led.mu.Unlock()
	}
}

// runClients runs the closed-loop clients until the window ends.
func runClients(window time.Duration, body func(id int, c *client, deadline time.Time)) float64 {
	start := time.Now()
	deadline := start.Add(window)
	var wg sync.WaitGroup
	for id := 0; id < clients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c := newClient()
			defer c.close()
			body(id, c, deadline)
		}(id)
	}
	wg.Wait()
	return time.Since(start).Seconds()
}

// converge sends req sequentially until a reply says converged, checking
// every reply.
func (o *outcome) converge(c *client, tr *tracer, url string, req *server.QueryRequest, check func([]exec.Value) error) error {
	key := reqKey(req)
	for i := 0; i < 1000; i++ {
		r, err := c.query(tr, url, req)
		if err == nil {
			err = check(r.payload.Values)
		}
		if !o.record(r, err, "warm-up "+key, false) {
			return fmt.Errorf("warm-up %s: %v", key, err)
		}
		o.conv.observe(key, r)
		if r.payload.Meta.State == "converged" {
			o.noteSpeedup(key, r)
			return nil
		}
	}
	return fmt.Errorf("warm-up %s: not converged after 1000 requests", key)
}

// probe times append/truncate pairs of seeded lineitem batches on an
// otherwise idle node, checking each reply's epoch and row count.
func (o *outcome) probe(url string, db *apq.DB, rng *rand.Rand) {
	c := newClient()
	defer c.close()
	rows := int64(db.Catalog().MustTable("lineitem").Rows())
	var epoch int64
	for i := 0; i < probePairs; i++ {
		epoch++
		o.mutateOnce(c, url+"/admin/append", appendBody(makeBatch(db, "lineitem", batchRows, rng)), epoch, rows+batchRows)
		epoch++
		o.mutateOnce(c, url+"/admin/truncate", truncateBody(), epoch, rows)
	}
}

func appendBody(batch map[string]apq.ColumnAppend) map[string]any {
	cols := map[string]server.ColumnAppendSpec{}
	for k, v := range batch {
		cols[k] = server.ColumnAppendSpec{Ints: v.Ints, Strs: v.Strs}
	}
	return map[string]any{"table": "lineitem", "columns": cols}
}

func truncateBody() map[string]any { return map[string]any{"table": "lineitem", "rows": batchRows} }

// mutateOnce sends one append or truncate and checks the epoch and row
// count it reports.
func (o *outcome) mutateOnce(c *client, url string, body map[string]any, epoch, rows int64) bool {
	enc, err := c.encode(body)
	if err != nil {
		return o.led.record(err, url)
	}
	start := time.Now()
	mr, err := c.mutate(url, enc)
	ms := float64(time.Since(start)) / 1e6
	if err == nil && (mr.Epoch != epoch || mr.Rows != rows) {
		err = fmt.Errorf("epoch %d rows %d, want epoch %d rows %d", mr.Epoch, mr.Rows, epoch, rows)
	}
	if !o.led.record(err, url) {
		return false
	}
	o.led.mu.Lock()
	o.mutLat = append(o.mutLat, ms)
	o.led.mu.Unlock()
	return true
}

// setup is one workload's set-up: it returns the nodes (the entry node
// first) and releases them on close.
type setup struct {
	nodes []*node
	tmp   string
}

func (s *setup) close() {
	for _, n := range s.nodes {
		n.close()
	}
	if s.tmp != "" {
		os.RemoveAll(s.tmp)
	}
}

// repeatSetup runs build setupReps times, timing each, and keeps the last.
func (o *outcome) repeatSetup(build func() (*setup, error)) (*setup, error) {
	var keep *setup
	for i := 0; i < setupReps; i++ {
		if keep != nil {
			keep.close()
			keep = nil
			// Start each set-up from a collected heap, so the peak RSS
			// reflects one set-up's data, not the garbage of the last.
			runtime.GC()
		}
		start := time.Now()
		s, err := build()
		if err != nil {
			return nil, err
		}
		o.setupS = append(o.setupS, time.Since(start).Seconds())
		keep = s
	}
	return keep, nil
}

// load generates the TPC-H data, timed.
func (o *outcome) load(tr *tracer) (db *apq.DB) {
	start := time.Now()
	tr.do("gen.load", 0, func() { db = apq.LoadTPCH(scaleFactor, genSeed) })
	o.loadS = append(o.loadS, time.Since(start).Seconds())
	return db
}

// keepSample keeps client 0's first requests for the replay.
func (o *outcome) keepSample(id int, req *server.QueryRequest) {
	if id == 0 && len(o.sample) < sampleRequests {
		o.sample = append(o.sample, *req)
	}
}

// timed snapshots /stats, runs the clients for the window, snapshots again,
// runs after (the mutation probe, when there is one) and snapshots a third
// time.
func (o *outcome) timed(op *opts, st *setup, body func(id int, c *client, deadline time.Time), after func()) error {
	c := newClient()
	defer c.close()
	before, err := snapshot(c, st.nodes)
	if err != nil {
		return err
	}
	o.windowS = runClients(op.window, body)
	end, err := snapshot(c, st.nodes)
	if err != nil {
		return err
	}
	o.window = end.sub(before)
	if after != nil {
		after()
	}
	final, err := snapshot(c, st.nodes)
	if err != nil {
		return err
	}
	o.withProbe = final.sub(before)
	return nil
}
