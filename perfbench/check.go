package main

// The checker: every reply is compared with a computation made apart from
// the serving path — a loop over the generated columns, or the serial plan
// run on a fresh engine — never with an earlier reply.

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	apq "repro"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/server"
)

// intColumn returns the values of a table's integer column.
func intColumn(db *apq.DB, table, col string) ([]int64, error) {
	t, err := db.Catalog().Table(table)
	if err != nil {
		return nil, err
	}
	c, err := t.Column(col)
	if err != nil {
		return nil, err
	}
	if c.Dict() != nil {
		return nil, fmt.Errorf("%s.%s is dictionary-coded, not an integer column", table, col)
	}
	return c.Values(), nil
}

// intColumns lists a table's integer (not dictionary-coded) columns.
func intColumns(db *apq.DB, table string) []string {
	t := db.Catalog().MustTable(table)
	var out []string
	for _, name := range t.ColumnNames() {
		if t.MustColumn(name).Dict() == nil {
			out = append(out, name)
		}
	}
	return out
}

// selectSum is sum(v) over v in vals with lo ≤ v ≤ hi.
func selectSum(vals []int64, lo, hi int64) int64 {
	var s int64
	for _, v := range vals {
		if v >= lo && v <= hi {
			s += v
		}
	}
	return s
}

// selectRows is the v in vals with lo ≤ v ≤ hi, in row order.
func selectRows(vals []int64, lo, hi int64) []int64 {
	var out []int64
	for _, v := range vals {
		if v >= lo && v <= hi {
			out = append(out, v)
		}
	}
	return out
}

// q6Revenue is TPC-H Q6 with its default parameters, as a loop:
// sum(l_extendedprice × l_discount) over rows with l_shipdate in
// [365, 730), l_discount in [5, 7] and l_quantity < 24.
func q6Revenue(db *apq.DB) (int64, error) {
	var cols [4][]int64
	for i, name := range []string{"l_shipdate", "l_discount", "l_quantity", "l_extendedprice"} {
		v, err := intColumn(db, "lineitem", name)
		if err != nil {
			return 0, err
		}
		cols[i] = v
	}
	ship, disc, qty, price := cols[0], cols[1], cols[2], cols[3]
	var s int64
	for i := range ship {
		if ship[i] >= 365 && ship[i] < 730 && disc[i] >= 5 && disc[i] <= 7 && qty[i] < 24 {
			s += price[i] * disc[i]
		}
	}
	return s, nil
}

// serialValues runs q's serial plan once on a fresh engine over db.
func serialValues(db *apq.DB, q *apq.Query) ([]exec.Value, error) {
	res, err := apq.NewEngine(db, apq.TwoSocketMachine()).Execute(q)
	if err != nil {
		return nil, err
	}
	return res.Values, nil
}

// checkScalar accepts a reply holding exactly one scalar equal to want.
func checkScalar(got []exec.Value, want int64) error {
	if len(got) != 1 || got[0].Kind != plan.KindScalar {
		return fmt.Errorf("want one scalar, got %v", got)
	}
	if got[0].Scalar != want {
		return fmt.Errorf("scalar %d, want %d", got[0].Scalar, want)
	}
	return nil
}

// checkColumn accepts a reply holding exactly one column equal to the
// concatenation of parts.
func checkColumn(got []exec.Value, parts ...[]int64) error {
	if len(got) != 1 || got[0].Kind != plan.KindColumn {
		return fmt.Errorf("want one column, got %v", got)
	}
	col := got[0].Col
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	if col.Len() != n {
		return fmt.Errorf("column of %d values, want %d", col.Len(), n)
	}
	i := 0
	for _, p := range parts {
		for _, v := range p {
			if g := col.At(i); g != v {
				return fmt.Errorf("value %d is %d, want %d", i, g, v)
			}
			i++
		}
	}
	return nil
}

// checkEqual accepts a reply equal to a fresh engine's serial result.
func checkEqual(got, want []exec.Value) error {
	if !exec.ResultsEqual(got, want) {
		return fmt.Errorf("result %v differs from the serial plan's %v", got, want)
	}
	return nil
}

// rangeSpec is one select_sum or select_rows request over an integer column
// with a closed range.
type rangeSpec struct {
	Table, Column string
	Lo, Hi        int64
	Rows          bool // select_rows instead of select_sum
}

func (s rangeSpec) key() string {
	shape := "sum"
	if s.Rows {
		shape = "rows"
	}
	return fmt.Sprintf("%s:%s.%s:[%d,%d]", shape, s.Table, s.Column, s.Lo, s.Hi)
}

// request is the spec's /query body, asking for the APQRESULT reply.
func (s rangeSpec) request() *server.QueryRequest {
	lo, hi := s.Lo, s.Hi
	sp := &server.SelectSumSpec{Table: s.Table, Column: s.Column, Lo: &lo, Hi: &hi}
	if s.Rows {
		return &server.QueryRequest{SelectRows: sp, Results: true}
	}
	return &server.QueryRequest{SelectSum: sp, Results: true}
}

// quantileRange draws a closed range over a column's sorted values: it
// starts at a random quantile in [0, uMax) and spans a random share in
// [wMin, wMax] of the rows (more where the end value repeats). The selection
// is never empty.
func quantileRange(rng *rand.Rand, sorted []int64, uMax, wMin, wMax float64) (lo, hi int64) {
	n := float64(len(sorted))
	u := rng.Float64() * uMax
	w := wMin + rng.Float64()*(wMax-wMin)
	return sorted[int(u*n)], sorted[min(int((u+w)*n), len(sorted)-1)]
}

// makeBatch copies n seeded random rows of a table, every column, in the
// form /admin/append and DB.AppendRows take.
func makeBatch(db *apq.DB, table string, n int, rng *rand.Rand) map[string]apq.ColumnAppend {
	t := db.Catalog().MustTable(table)
	rows := make([]int, n)
	for i := range rows {
		rows[i] = rng.Intn(t.Rows())
	}
	out := map[string]apq.ColumnAppend{}
	for _, name := range t.ColumnNames() {
		c := t.MustColumn(name)
		if c.Dict() != nil {
			strs := make([]string, n)
			for i, r := range rows {
				strs[i] = c.Data().StringAt(r)
			}
			out[name] = apq.ColumnAppend{Strs: strs}
			continue
		}
		ints := make([]int64, n)
		for i, r := range rows {
			ints[i] = c.At(r)
		}
		out[name] = apq.ColumnAppend{Ints: ints}
	}
	return out
}

// shadow tracks one table's integer columns through the benchmark's own
// appends and truncates. The table alternates between its generated rows
// (even epochs) and those rows plus one appended batch (odd epochs); a
// reply is correct if it matches the data at any epoch between its send and
// its receipt, because requests admitted before a swap finish on the old
// snapshot.
type shadow struct {
	base map[string][]int64 // generated column values

	mu    sync.Mutex
	extra map[int64]map[string]apq.ColumnAppend // odd epoch → appended batch

	started atomic.Int64 // mutations sent
	acked   atomic.Int64 // mutations acknowledged
}

func newShadow(db *apq.DB, table string) (*shadow, error) {
	s := &shadow{base: map[string][]int64{}, extra: map[int64]map[string]apq.ColumnAppend{}}
	for _, c := range intColumns(db, table) {
		v, err := intColumn(db, table, c)
		if err != nil {
			return nil, err
		}
		s.base[c] = v
	}
	return s, nil
}

// beginAppend registers the batch of the next (odd) epoch before its
// request is sent and returns that epoch.
func (s *shadow) beginAppend(batch map[string]apq.ColumnAppend) int64 {
	s.mu.Lock()
	epoch := s.started.Load() + 1
	s.extra[epoch] = batch
	s.mu.Unlock()
	s.started.Add(1)
	return epoch
}

// beginTruncate marks the next (even) epoch as in flight and returns it.
func (s *shadow) beginTruncate() int64 { return s.started.Add(1) }

// ack records that the mutation of epoch has been acknowledged.
func (s *shadow) ack(epoch int64) { s.acked.Store(epoch) }

// batchAt is the batch appended at epoch (nil for the generated data).
func (s *shadow) batchAt(epoch int64) map[string]apq.ColumnAppend {
	if epoch%2 == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.extra[epoch]
}

// shadowSpec is a range request with its answer on the generated data.
type shadowSpec struct {
	rangeSpec
	baseRows []int64
	baseSum  int64
}

func (s *shadow) prepare(spec rangeSpec) shadowSpec {
	vals := s.base[spec.Column]
	return shadowSpec{rangeSpec: spec, baseRows: selectRows(vals, spec.Lo, spec.Hi), baseSum: selectSum(vals, spec.Lo, spec.Hi)}
}

// checkAt checks a reply against the data at one epoch.
func (s *shadow) checkAt(sp shadowSpec, got []exec.Value, epoch int64) error {
	var extra []int64
	if b := s.batchAt(epoch); b != nil {
		extra = b[sp.Column].Ints
	}
	if sp.Rows {
		return checkColumn(got, sp.baseRows, selectRows(extra, sp.Lo, sp.Hi))
	}
	return checkScalar(got, sp.baseSum+selectSum(extra, sp.Lo, sp.Hi))
}

// check accepts a reply matching any epoch in [from, to].
func (s *shadow) check(sp shadowSpec, got []exec.Value, from, to int64) error {
	var err error
	for e := from; e <= to; e++ {
		if err = s.checkAt(sp, got, e); err == nil {
			return nil
		}
	}
	return fmt.Errorf("%s matches no epoch in [%d,%d]: %w", sp.key(), from, to, err)
}

// query builds the serial plan of a range spec through the public
// builder, for the serial-plan side of the checker tests and the replay.
func (s rangeSpec) query() *apq.Query {
	qb := apq.NewQueryBuilder()
	c := qb.Bind(s.Table, s.Column)
	f := qb.Fetch(qb.Select(c, apq.Between(s.Lo, s.Hi)), c)
	if s.Rows {
		return qb.Build(f)
	}
	return qb.Build(qb.Aggr(apq.Sum, f))
}
