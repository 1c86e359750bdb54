package main

import (
	"errors"
	"math/rand"
	"slices"
	"time"

	apq "repro"
	"repro/internal/exec"
	"repro/internal/server"
)

// rows_mutate: Zipf-skewed wide select_rows and select_sum reads on one
// two-shard node while client 0 appends and truncates lineitem batches.

const (
	rowsSpecs   = 6   // fixed range requests; the first, most requested, is select_rows
	zipfS       = 1.2 // skew of the request draw over the specs
	mutateEvery = 400 // client 0 mutates after this many of its own reads
)

// rowsSpecSet draws the set of wide lineitem ranges: each covers
// between 10% and 40% of the rows of an integer column.
func rowsSpecSet(sh *shadow, seed int64) []shadowSpec {
	rng := rand.New(rand.NewSource(seed))
	cols := make([]string, 0, len(sh.base))
	for c := range sh.base {
		cols = append(cols, c)
	}
	slices.Sort(cols)
	seen := map[string]bool{}
	var out []shadowSpec
	for len(out) < rowsSpecs {
		c := cols[rng.Intn(len(cols))]
		sorted := slices.Clone(sh.base[c])
		slices.Sort(sorted)
		lo, hi := quantileRange(rng, sorted, 0.5, 0.1, 0.4)
		spec := rangeSpec{Table: "lineitem", Column: c, Lo: lo, Hi: hi, Rows: len(out) == 0}
		if seen[spec.key()] {
			continue
		}
		seen[spec.key()] = true
		out = append(out, sh.prepare(spec))
	}
	return out
}

// rowsSetup generates the data, starts one two-shard node and converges the
// spec set with one sequential client, so the timed window starts warm.
func (o *outcome) rowsSetup(tr *tracer, specs []shadowSpec, sh *shadow) (*setup, error) {
	db := o.load(tr)
	srv, err := apq.NewServer(apq.ServerConfig{
		DB:         db,
		Machine:    apq.TwoSocketMachine(),
		DBIdentity: apq.DBIdentity("tpch", scaleFactor, genSeed),
		Shards:     2,
	})
	if err != nil {
		return nil, err
	}
	ln, url, err := listen()
	if err != nil {
		srv.Close()
		return nil, err
	}
	st := &setup{nodes: []*node{startNode(entryNode, srv, ln, url, tr)}}
	c := newClient()
	defer c.close()
	start := time.Now()
	var werr error
	tr.do("setup.converge", 0, func() {
		for _, sp := range specs {
			check := func(v []exec.Value) error { return sh.checkAt(sp, v, 0) }
			if werr = o.converge(c, tr, url, sp.request(), check); werr != nil {
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

func rowsMutate(o *opts) (*outcome, error) {
	out := newOutcome()
	tr := o.tr
	db := apq.LoadTPCH(scaleFactor, genSeed)
	sh, err := newShadow(db, "lineitem")
	if err != nil {
		return nil, err
	}
	// The spec set is fixed; --seed drives the draws over it and the batches.
	specs := rowsSpecSet(sh, genSeed)
	reqs := make([]*server.QueryRequest, len(specs))
	for i, sp := range specs {
		reqs[i] = sp.request()
	}
	st, err := out.repeatSetup(func() (*setup, error) { return out.rowsSetup(tr, specs, sh) })
	if err != nil {
		return nil, err
	}
	defer st.close()
	// The convergence metrics count the window's warm re-convergences only.
	out.conv = episodes{open: map[string]*episode{}}
	url := st.nodes[0].url
	rows := int64(db.Catalog().MustTable("lineitem").Rows())
	// pending counts, per fingerprint, the non-converged replies since the
	// last mutation; a converged reply closes the count.
	pending := map[string]int{}
	err = out.timed(o, st, func(id int, c *client, deadline time.Time) {
		rng := rand.New(rand.NewSource(o.seed*1000 + int64(id)))
		zipf := rand.NewZipf(rng, zipfS, 1, uint64(len(specs)-1))
		mutating := id == 0
		for n := 1; time.Now().Before(deadline); n++ {
			if mutating && n%mutateEvery == 0 {
				var ok bool
				var epoch int64
				if sh.started.Load()%2 == 0 {
					batch := makeBatch(db, "lineitem", batchRows, rng)
					epoch = sh.beginAppend(batch)
					ok = out.mutateOnce(c, url+"/admin/append", appendBody(batch), epoch, rows+batchRows)
				} else {
					epoch = sh.beginTruncate()
					ok = out.mutateOnce(c, url+"/admin/truncate", truncateBody(), epoch, rows)
				}
				// After a failed mutation the data's state is unknown:
				// stop mutating rather than check reads against a guess.
				mutating = ok
				if ok {
					sh.ack(epoch)
					out.led.mu.Lock()
					out.mutations++
					for _, r := range reqs {
						pending[reqKey(r)] = 0
					}
					out.led.mu.Unlock()
				}
			}
			i := int(zipf.Uint64())
			out.keepSample(id, reqs[i])
			from := sh.acked.Load()
			r, err := c.query(tr, url, reqs[i])
			to := sh.started.Load()
			if err == nil {
				err = sh.check(specs[i], r.payload.Values, from, to)
			}
			key := reqKey(reqs[i])
			if !out.record(r, err, key, true) {
				continue
			}
			out.conv.observe(key, r)
			out.led.mu.Lock()
			if k, ok := pending[key]; ok {
				if r.payload.Meta.State == "converged" {
					out.reconverge = append(out.reconverge, float64(k))
					delete(pending, key)
				} else {
					pending[key] = k + 1
				}
			}
			out.led.mu.Unlock()
		}
	}, nil)
	if err == nil && out.mutations == 0 {
		err = errors.New("rows_mutate: the window ended before the first mutation")
	}
	scans := make([]rangeSpec, len(specs))
	for i, sp := range specs {
		scans[i] = sp.rangeSpec
	}
	out.replay = replayInput{dbs: map[string]*apq.DB{"": db}, warm: true, scans: scans}
	return out, err
}
