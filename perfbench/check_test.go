package main

import (
	"math/rand"
	"slices"
	"testing"

	apq "repro"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/server"
	"repro/internal/storage"
)

// wire sends values through the APQRESULT encoder and decoder, so the
// checker sees them exactly as a client does.
func wire(t *testing.T, vals []exec.Value) []exec.Value {
	t.Helper()
	data, err := server.EncodeResult(&server.QueryResponse{Query: "test", NumValues: len(vals)}, vals)
	if err != nil {
		t.Fatal(err)
	}
	p, err := apq.DecodeResult(data)
	if err != nil {
		t.Fatal(err)
	}
	return p.Values
}

// perturb returns vals with its first scalar or first column value off by
// one.
func perturb(t *testing.T, vals []exec.Value) []exec.Value {
	t.Helper()
	out := append([]exec.Value(nil), vals...)
	for i, v := range out {
		switch v.Kind {
		case plan.KindScalar:
			out[i].Scalar++
			return out
		case plan.KindColumn:
			if v.Col.Len() == 0 || v.Col.Dict() != nil {
				continue
			}
			c := append([]int64(nil), v.Col.Values()...)
			c[0]++
			out[i] = exec.ColValue(storage.NewIntColumn(v.Col.Name(), c))
			return out
		}
	}
	t.Fatalf("nothing to perturb in %v", vals)
	return nil
}

func TestLoopsAgreeWithSerialPlan(t *testing.T) {
	db := apq.LoadTPCH(scaleFactor, genSeed)
	q6, err := serialValues(db, apq.TPCHQuery(6))
	if err != nil {
		t.Fatal(err)
	}
	rev, err := q6Revenue(db)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkScalar(wire(t, q6), rev); err != nil {
		t.Fatalf("q6 loop against the serial plan: %v", err)
	}
	rng := rand.New(rand.NewSource(1))
	for _, table := range coldTables {
		for _, c := range intColumns(db, table) {
			vals, err := intColumn(db, table, c)
			if err != nil {
				t.Fatal(err)
			}
			sorted := slices.Clone(vals)
			slices.Sort(sorted)
			lo, hi := quantileRange(rng, sorted, 0.75, 0.25, 0.25)
			for _, rows := range []bool{false, true} {
				spec := rangeSpec{Table: table, Column: c, Lo: lo, Hi: hi, Rows: rows}
				got, err := serialValues(db, spec.query())
				if err != nil {
					t.Fatal(err)
				}
				if rows {
					err = checkColumn(wire(t, got), selectRows(vals, lo, hi))
				} else {
					err = checkScalar(wire(t, got), selectSum(vals, lo, hi))
				}
				if err != nil {
					t.Errorf("%s: loop against the serial plan: %v", spec.key(), err)
				}
			}
		}
	}
}

func TestShadowFollowsAppendAndTruncate(t *testing.T) {
	db := apq.LoadTPCH(scaleFactor, genSeed)
	sh, err := newShadow(db, "lineitem")
	if err != nil {
		t.Fatal(err)
	}
	specs := rowsSpecSet(sh, 7)
	batch := makeBatch(db, "lineitem", batchRows, rand.New(rand.NewSource(7)))
	grown, err := db.AppendRows("lineitem", batch)
	if err != nil {
		t.Fatal(err)
	}
	shrunk, err := grown.DeleteTail("lineitem", batchRows)
	if err != nil {
		t.Fatal(err)
	}
	sh.ack(sh.beginAppend(batch))
	sh.ack(sh.beginTruncate())
	moved := 0
	for _, sp := range specs {
		for epoch, data := range []*apq.DB{db, grown, shrunk} {
			got, err := serialValues(data, sp.query())
			if err != nil {
				t.Fatal(err)
			}
			got = wire(t, got)
			if err := sh.checkAt(sp, got, int64(epoch)); err != nil {
				t.Errorf("%s at epoch %d: shadow against the serial plan: %v", sp.key(), epoch, err)
			}
			if err := sh.check(sp, got, 0, 2); err != nil {
				t.Errorf("%s at epoch %d: not accepted within [0,2]: %v", sp.key(), epoch, err)
			}
			if epoch == 1 && sh.checkAt(sp, got, 0) != nil {
				moved++
			}
		}
	}
	if moved == 0 {
		t.Fatal("no spec's answer changed with the appended batch: the test shows nothing")
	}
}

func TestCheckerRejectsPerturbedReply(t *testing.T) {
	db := apq.LoadTPCH(scaleFactor, genSeed)
	ds := apq.LoadTPCDS(scaleFactor, genSeed)
	checks, err := hotOracle(db, ds)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range hotQueries {
		var want []exec.Value
		if q.tenant == "ds" {
			want, err = serialValues(ds, apq.TPCDSQuery(q.n))
		} else {
			want, err = serialValues(db, apq.TPCHQuery(q.n))
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := checks[i](wire(t, want)); err != nil {
			t.Errorf("%v: the serial answer is rejected: %v", q, err)
		}
		if checks[i](wire(t, perturb(t, want))) == nil {
			t.Errorf("%v: a reply perturbed by one is accepted", q)
		}
	}
	sh, err := newShadow(db, "lineitem")
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range rowsSpecSet(sh, 3) {
		got, err := serialValues(db, sp.query())
		if err != nil {
			t.Fatal(err)
		}
		if sh.check(sp, wire(t, perturb(t, got)), 0, 0) == nil {
			t.Errorf("%s: a reply perturbed by one is accepted", sp.key())
		}
	}
}
