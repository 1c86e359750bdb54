package main

import (
	"math/rand"
	"time"

	apq "repro"
	"repro/internal/exec"
	"repro/internal/server"
)

// hot_mix: two federated nodes serve seven converged fingerprints; two
// clients send a seeded uniform mix to node a. TPC-DS q2 and q5 are left
// out: their converged plans return values that differ from the serial
// plan's (see README.md and the divergence command).

type mixQuery struct {
	tenant string
	n      int
}

var hotQueries = []mixQuery{{"", 4}, {"", 6}, {"", 13}, {"", 22}, {"ds", 1}, {"ds", 3}, {"ds", 4}}

func (q mixQuery) request() *server.QueryRequest {
	return &server.QueryRequest{Tenant: q.tenant, Query: q.n, Results: true}
}

// hotOracle computes each mix query's answer apart from the servers: q6 by
// a loop over lineitem, the rest by their serial plan on a fresh engine.
func hotOracle(db, ds *apq.DB) ([]func([]exec.Value) error, error) {
	out := make([]func([]exec.Value) error, len(hotQueries))
	for i, q := range hotQueries {
		if q.tenant == "" && q.n == 6 {
			rev, err := q6Revenue(db)
			if err != nil {
				return nil, err
			}
			out[i] = func(v []exec.Value) error { return checkScalar(v, rev) }
			continue
		}
		var want []exec.Value
		var err error
		if q.tenant == "ds" {
			want, err = serialValues(ds, apq.TPCDSQuery(q.n))
		} else {
			want, err = serialValues(db, apq.TPCHQuery(q.n))
		}
		if err != nil {
			return nil, err
		}
		out[i] = func(v []exec.Value) error { return checkEqual(v, want) }
	}
	return out, nil
}

// hotNode builds one federated node serving TPC-H and the "ds" tenant.
func hotNode(db *apq.DB, self, peer, peerURL string) (*apq.Server, error) {
	return apq.NewServer(apq.ServerConfig{
		DB:         db,
		Machine:    apq.TwoSocketMachine(),
		DBIdentity: apq.DBIdentity("tpch", scaleFactor, genSeed),
		Shards:     1,
		Tenants:    []apq.TenantConfig{{Name: "ds", Benchmark: "tpcds", SF: scaleFactor, Seed: genSeed}},
		Cluster:    &apq.ClusterConfig{Self: self, Peers: []apq.ClusterPeer{{Name: peer, URL: peerURL}}},
	})
}

// hotSetup generates the data, starts nodes a and b, and converges the mix's
// fingerprints with one sequential client.
func (o *outcome) hotSetup(tr *tracer, checks []func([]exec.Value) error) (*setup, error) {
	db := o.load(tr)
	lnA, urlA, err := listen()
	if err != nil {
		return nil, err
	}
	lnB, urlB, err := listen()
	if err != nil {
		lnA.Close()
		return nil, err
	}
	a, err := hotNode(db, entryNode, "b", urlB)
	if err != nil {
		lnA.Close()
		lnB.Close()
		return nil, err
	}
	b, err := hotNode(db, "b", entryNode, urlA)
	if err != nil {
		a.Close()
		lnA.Close()
		lnB.Close()
		return nil, err
	}
	st := &setup{nodes: []*node{startNode(entryNode, a, lnA, urlA, tr), startNode("b", b, lnB, urlB, tr)}}
	c := newClient()
	defer c.close()
	start := time.Now()
	var werr error
	tr.do("setup.converge", 0, func() {
		for i, q := range hotQueries {
			if werr = o.converge(c, tr, urlA, q.request(), checks[i]); werr != nil {
				return
			}
		}
	})
	if werr != nil {
		st.close()
		return nil, werr
	}
	o.convergeS = append(o.convergeS, time.Since(start).Seconds())
	return st, nil
}

func hotMix(o *opts) (*outcome, error) {
	out := newOutcome()
	tr := o.tr
	// The answers come from a separate copy of the generated data, made
	// before and outside the timed set-ups.
	db := apq.LoadTPCH(scaleFactor, genSeed)
	start := time.Now()
	ds := apq.LoadTPCDS(scaleFactor, genSeed)
	out.dsLoadS = time.Since(start).Seconds()
	checks, err := hotOracle(db, ds)
	if err != nil {
		return nil, err
	}
	st, err := out.repeatSetup(func() (*setup, error) { return out.hotSetup(tr, checks) })
	if err != nil {
		return nil, err
	}
	defer st.close()
	urlA := st.nodes[0].url
	reqs := make([]*server.QueryRequest, len(hotQueries))
	for i, q := range hotQueries {
		reqs[i] = q.request()
	}
	err = out.timed(o, st, func(id int, c *client, deadline time.Time) {
		rng := rand.New(rand.NewSource(o.seed*1000 + int64(id)))
		for time.Now().Before(deadline) {
			i := rng.Intn(len(reqs))
			out.keepSample(id, reqs[i])
			r, err := c.query(tr, urlA, reqs[i])
			if err == nil {
				err = checks[i](r.payload.Values)
			}
			out.record(r, err, reqKey(reqs[i]), true)
		}
	}, func() { out.probe(urlA, db, rand.New(rand.NewSource(o.seed))) })
	out.replay = replayInput{
		dbs:   map[string]*apq.DB{"": db, "ds": ds},
		warm:  true,
		phase: "serve",
		// The scans of the mix's simplest members: q6's ship-date window and
		// q4's order-date window.
		scans: []rangeSpec{
			{Table: "lineitem", Column: "l_shipdate", Lo: 365, Hi: 729},
			{Table: "orders", Column: "o_orderdate", Lo: 700, Hi: 789},
		},
	}
	return out, err
}
