// Command divergence converges each query the serving benchmark leaves out
// with result verification on, and prints the first adaptive run whose
// results differ from the serial plan's. A query that converges with every
// run verified prints "ok"; once every line says ok, the query can join the
// benchmark's workloads.
//
//	cd perfbench && go run ./divergence [-sf 1] [-seed 42]
//
// It exits 1 when any query diverges.
package main

import (
	"flag"
	"fmt"
	"os"

	apq "repro"
)

// excluded are the queries left out of the serving benchmark.
var excluded = []struct {
	bench string
	n     int
}{
	{"tpch", 8}, {"tpch", 9}, {"tpch", 14}, {"tpch", 17}, {"tpch", 19},
	{"tpcds", 2}, {"tpcds", 5},
}

func main() {
	sf := flag.Float64("sf", 1, "scale factor")
	seed := flag.Int64("seed", 42, "generator seed")
	flag.Parse()
	tpch, tpcds := apq.LoadTPCH(*sf, *seed), apq.LoadTPCDS(*sf, *seed)
	diverged := false
	for _, q := range excluded {
		db, query := tpch, apq.TPCHQuery
		if q.bench == "tpcds" {
			db, query = tpcds, apq.TPCDSQuery
		}
		sess := apq.NewEngine(db, apq.TwoSocketMachine()).NewAdaptiveSession(query(q.n), apq.WithResultVerification())
		for {
			more, err := sess.Step()
			if err != nil {
				att := sess.Attempts()
				m := att[len(att)-1].Mutation
				fmt.Printf("%s q%d sf=%g seed=%d: diverges at run %d (plan from a %s mutation of %s): %v\n",
					q.bench, q.n, *sf, *seed, len(att)-1, m.Kind, m.Op, err)
				diverged = true
				break
			}
			if !more {
				fmt.Printf("%s q%d sf=%g seed=%d: ok, converged after %d runs\n", q.bench, q.n, *sf, *seed, len(sess.Attempts()))
				break
			}
		}
	}
	if diverged {
		os.Exit(1)
	}
}
