package main

// The replay: after the timed window of a traced run, a seeded sample of the
// workload's requests goes through the same public layer calls the server
// makes, on a private replica (same catalogs, machine and cost model), with
// a span around each call. Spans inside the program would need the program
// to change; these wrap the calls from outside.

import (
	"fmt"
	"math/rand"

	apq "repro"
	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/plancache"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/tpcds"
	"repro/internal/tpch"
)

const (
	replayRequests  = 120 // sampled requests replayed through plancache
	replaySessions  = 3   // fingerprints stepped through core and exec directly
	replayExplore   = 20  // mutations along the manual exploration chain
	replayServe     = 20  // executions of a converged best plan
	replayKernelRep = 10  // repetitions of each kernel and storage call
)

// replayInput is what a workload hands the replay.
type replayInput struct {
	dbs   map[string]*apq.DB // tenant ("" = default) → generated data
	warm  bool               // converge each fingerprint before replaying (converged serving)
	scans []rangeSpec        // columns and ranges the workload scans
	phase string             // exec spans to report: "explore", "serve" or "" for both
}

// replayPlan resolves a request to its tenant catalog, name and serial plan
// builder, the way the server's resolver does.
func replayPlan(in replayInput, r *server.QueryRequest) (cat *storage.Catalog, name string, build func() (*plan.Plan, error), err error) {
	db, ok := in.dbs[r.Tenant]
	if !ok {
		return nil, "", nil, fmt.Errorf("replay: unknown tenant %q", r.Tenant)
	}
	cat = db.Catalog()
	switch {
	case r.SelectSum != nil || r.SelectRows != nil:
		sp, rows := r.SelectSum, false
		if sp == nil {
			sp, rows = r.SelectRows, true
		}
		spec := rangeSpec{Table: sp.Table, Column: sp.Column, Lo: *sp.Lo, Hi: *sp.Hi, Rows: rows}
		return cat, spec.key(), func() (*plan.Plan, error) { return spec.query().Plan(), nil }, nil
	case r.Tenant == "ds":
		n := r.Query
		return cat, fmt.Sprintf("tpcds:q%d", n), func() (*plan.Plan, error) { return tpcds.Query(n) }, nil
	default:
		n := r.Query
		return cat, fmt.Sprintf("tpch:q%d", n), func() (*plan.Plan, error) { return tpch.Query(n) }, nil
	}
}

func replicaEngine(in replayInput) *exec.Engine {
	return exec.NewEngine(in.dbs[""].Catalog(), sim.TwoSocket(), cost.Default())
}

// replay runs every replay pass and returns the simulator tasks of each
// replayed plan-cache invocation.
func replay(tr *tracer, in replayInput, sample []server.QueryRequest, seed int64) ([]float64, error) {
	rng := rand.New(rand.NewSource(seed))
	picked := sample
	if len(picked) > replayRequests {
		start := rng.Intn(len(picked) - replayRequests + 1)
		picked = picked[start : start+replayRequests]
	}
	tasks, err := replayCache(tr, in, picked)
	if err != nil {
		return nil, err
	}
	if err := replayCore(tr, in, picked); err != nil {
		return nil, err
	}
	if err := replayKernels(tr, in); err != nil {
		return nil, err
	}
	return tasks, replayStorage(tr, in, rng)
}

// replayCache serves the sampled requests through a replica plan cache:
// plancache invoke, then the APQRESULT encode of the result.
func replayCache(tr *tracer, in replayInput, picked []server.QueryRequest) (tasks []float64, err error) {
	cache := plancache.New(replicaEngine(in), plancache.Config{})
	warmed := map[string]bool{}
	for i := range picked {
		r := &picked[i]
		cat, name, build, err := replayPlan(in, r)
		if err != nil {
			return nil, err
		}
		fp := plancache.Fingerprint(r.Tenant, name)
		opts := exec.JobOptions{Catalog: cat}
		if in.warm && !warmed[fp] {
			warmed[fp] = true
			for k := 0; k < 1000; k++ {
				inv, err := cache.InvokeTenant(r.Tenant, fp, name, build, opts)
				if err != nil {
					return nil, err
				}
				if inv.Entry.Session.Done() {
					break
				}
			}
		}
		var inv *plancache.Result
		tr.do("plancache.invoke", 0, func() { inv, err = cache.InvokeTenant(r.Tenant, fp, name, build, opts) })
		if err != nil {
			return nil, fmt.Errorf("replay %s: %w", name, err)
		}
		tasks = append(tasks, float64(len(inv.Profile.Ops)))
		meta := server.QueryResponse{Query: name, State: "adapting", LatencyNs: inv.Profile.Makespan(), NumValues: len(inv.Values)}
		tr.do("server.encode", 0, func() { _, err = server.EncodeResult(&meta, inv.Values) })
		if err != nil {
			return nil, err
		}
	}
	return tasks, nil
}

// replayCore steps a few sampled fingerprints through core and exec
// directly: a session converged step by step, a manual exploration chain
// (submit, run, mutate) from the serial plan, and converged serving of the
// session's best plan.
func replayCore(tr *tracer, in replayInput, picked []server.QueryRequest) error {
	eng := replicaEngine(in)
	mut := core.NewMutator(core.MutationConfig{})
	done := map[string]bool{}
	for i := range picked {
		if len(done) == replaySessions {
			break
		}
		cat, name, build, err := replayPlan(in, &picked[i])
		if err != nil {
			return err
		}
		if done[name] {
			continue
		}
		done[name] = true
		opts := exec.JobOptions{Catalog: cat}
		p, err := build()
		if err != nil {
			return err
		}
		sess := core.NewSession(eng, p, core.MutationConfig{}, core.ConvergenceConfig{})
		for more := true; more; {
			tr.do("core.step", 0, func() { more, err = sess.StepWith(opts) })
			if err != nil {
				return fmt.Errorf("replay %s: %w", name, err)
			}
		}
		var parent *plan.Plan
		for k := 0; k < replayExplore; k++ {
			job, err := replaySubmitRun(tr, eng, p, exec.JobOptions{Catalog: cat, DerivedFrom: parent}, "explore")
			if err != nil {
				return fmt.Errorf("replay %s: %w", name, err)
			}
			var np *plan.Plan
			tr.do("core.mutate", 0, func() { np, _, err = mut.MutateMostExpensive(p, job.Profile) })
			if err != nil {
				return fmt.Errorf("replay %s: %w", name, err)
			}
			if np == p {
				break
			}
			parent, p = p, np
		}
		best := sess.Best()
		for k := 0; k < replayServe; k++ {
			if _, err := replaySubmitRun(tr, eng, best, opts, "serve"); err != nil {
				return fmt.Errorf("replay %s: %w", name, err)
			}
		}
	}
	return nil
}

// replaySubmitRun submits p and drives the simulated machine until it
// completes, with a span around each call.
func replaySubmitRun(tr *tracer, eng *exec.Engine, p *plan.Plan, opts exec.JobOptions, phase string) (*exec.PlanJob, error) {
	var (
		job *exec.PlanJob
		err error
	)
	submit := span{ID: tr.id(), Name: "exec.submit", Phase: phase}
	run := span{ID: tr.id(), Name: "exec.run", Phase: phase}
	t0 := tr.now()
	job, err = eng.Submit(p, opts)
	t1 := tr.now()
	if err != nil {
		return nil, err
	}
	eng.Run()
	t2 := tr.now()
	submit.Start, submit.End, run.Start, run.End = t0, t1, t1, t2
	tr.add(submit)
	tr.add(run)
	if job.Err != nil {
		return nil, job.Err
	}
	return job, nil
}

// replayKernels times the select and fetch kernels over the workload's
// scanned columns.
func replayKernels(tr *tracer, in replayInput) error {
	for _, sc := range in.scans {
		col, err := in.dbs[""].Catalog().MustTable(sc.Table).Column(sc.Column)
		if err != nil {
			return err
		}
		sel := make([]int64, 0, col.Len())
		for k := 0; k < replayKernelRep; k++ {
			t0 := tr.now()
			oids, _ := algebra.SelectInto(sel, col, algebra.Between(sc.Lo, sc.Hi))
			t1 := tr.now()
			dst := make([]int64, len(oids))
			t2 := tr.now()
			algebra.FetchInto(dst, oids, col)
			t3 := tr.now()
			tr.add(span{ID: tr.id(), Name: "algebra.select", Rows: int64(col.Len()), Start: t0, End: t1})
			if len(oids) > 0 {
				tr.add(span{ID: tr.id(), Name: "algebra.fetch", Rows: int64(len(oids)), Start: t2, End: t3})
			}
		}
	}
	return nil
}

// replayStorage times copy-on-write appends and tail deletes of a seeded
// lineitem batch on the replica catalog.
func replayStorage(tr *tracer, in replayInput, rng *rand.Rand) error {
	db := in.dbs[""]
	batch := makeBatch(db, "lineitem", batchRows, rng)
	for k := 0; k < replayKernelRep; k++ {
		var (
			grown *storage.Catalog
			err   error
		)
		tr.do("storage.append", 0, func() { grown, err = db.Catalog().AppendRows("lineitem", batch) })
		if err != nil {
			return err
		}
		tr.do("storage.truncate", 0, func() { _, err = grown.DeleteTail("lineitem", batchRows) })
		if err != nil {
			return err
		}
	}
	return nil
}
