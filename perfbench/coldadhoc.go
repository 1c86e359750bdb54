package main

import (
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	apq "repro"
)

// cold_adhoc: every request is an exploration step of a fresh select_sum
// fingerprint on one node whose per-shard plan cache is far smaller than
// the fingerprints a run touches, with the convergence store on.

// coldCacheSize is the per-shard plan-cache bound: a 25 s run converges
// about 200 fingerprints (see README.md), so converged sessions are evicted
// (and persisted) all the time, while the two in flight always fit.
const coldCacheSize = 4

// coldTables are the tables specs are drawn from: lineitem alone, so every
// spec scans the same number of rows and a run's cost does not hinge on
// which tables its seed happened to draw.
var coldTables = []string{"lineitem"}

// coldShare is the share of a column's rows every cold_adhoc range covers
// (more where its end value repeats), so runs differ in where their ranges
// fall, not in how much they select.
const coldShare = 0.25

type coldColumn struct {
	table, column string
	vals, sorted  []int64
}

// specDrawer hands out seeded select_sum specs never drawn before in the
// run, taking the columns in turn.
type specDrawer struct {
	cols []coldColumn
	mu   sync.Mutex
	next int
	seen map[string]bool
}

func (d *specDrawer) draw(rng *rand.Rand) (rangeSpec, []int64) {
	for {
		d.mu.Lock()
		c := d.cols[d.next%len(d.cols)]
		d.next++
		d.mu.Unlock()
		lo, hi := quantileRange(rng, c.sorted, 1-coldShare, coldShare, coldShare)
		spec := rangeSpec{Table: c.table, Column: c.column, Lo: lo, Hi: hi}
		d.mu.Lock()
		fresh := !d.seen[spec.key()]
		d.seen[spec.key()] = true
		d.mu.Unlock()
		if fresh {
			return spec, c.vals
		}
	}
}

// coldSetup generates the data and starts one two-shard node with a small
// plan cache and a convergence store in a fresh directory.
func (o *outcome) coldSetup(tr *tracer, workDir string) (*setup, error) {
	db := o.load(tr)
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(workDir, "store-")
	if err != nil {
		return nil, err
	}
	srv, err := apq.NewServer(apq.ServerConfig{
		DB:         db,
		Machine:    apq.TwoSocketMachine(),
		DBIdentity: apq.DBIdentity("tpch", scaleFactor, genSeed),
		Shards:     2,
		CacheSize:  coldCacheSize,
		StorePath:  filepath.Join(tmp, "plans.apqstore"),
	})
	if err != nil {
		os.RemoveAll(tmp)
		return nil, err
	}
	ln, url, err := listen()
	if err != nil {
		srv.Close()
		os.RemoveAll(tmp)
		return nil, err
	}
	return &setup{nodes: []*node{startNode(entryNode, srv, ln, url, tr)}, tmp: tmp}, nil
}

func coldAdhoc(o *opts) (*outcome, error) {
	out := newOutcome()
	tr := o.tr
	db := apq.LoadTPCH(scaleFactor, genSeed)
	d := &specDrawer{seen: map[string]bool{}}
	for _, t := range coldTables {
		for _, c := range intColumns(db, t) {
			vals, err := intColumn(db, t, c)
			if err != nil {
				return nil, err
			}
			sorted := slices.Clone(vals)
			slices.Sort(sorted)
			d.cols = append(d.cols, coldColumn{table: t, column: c, vals: vals, sorted: sorted})
		}
	}
	st, err := out.repeatSetup(func() (*setup, error) { return out.coldSetup(tr, o.workDir) })
	if err != nil {
		return nil, err
	}
	defer st.close()
	url := st.nodes[0].url
	var scanned []rangeSpec
	err = out.timed(o, st, func(id int, c *client, deadline time.Time) {
		rng := rand.New(rand.NewSource(o.seed*1000 + int64(id)))
		for time.Now().Before(deadline) {
			spec, vals := d.draw(rng)
			if id == 0 && len(scanned) < 4 {
				scanned = append(scanned, spec)
			}
			want := selectSum(vals, spec.Lo, spec.Hi)
			req := spec.request()
			key := spec.key()
			for time.Now().Before(deadline) {
				out.keepSample(id, req)
				r, err := c.query(tr, url, req)
				if err == nil {
					err = checkScalar(r.payload.Values, want)
				}
				if !out.record(r, err, key, true) {
					break
				}
				out.conv.observe(key, r)
				if r.payload.Meta.State == "converged" {
					out.noteSpeedup(key, r)
					break
				}
			}
		}
	}, func() { out.probe(url, db, rand.New(rand.NewSource(o.seed))) })
	out.replay = replayInput{dbs: map[string]*apq.DB{"": db}, phase: "explore", scans: scanned}
	return out, err
}
