package main

import (
	"fmt"
	"os"
	"time"
)

// perLayer runs the replay, writes the trace file and computes the
// per-layer metrics of a traced run. Counters are /stats deltas over the
// timed window; timings are span medians.
func perLayer(o *opts, out *outcome) (map[string]metric, error) {
	tr := o.tr
	tasks, err := replay(tr, out.replay, out.sample, o.seed)
	if err != nil {
		return nil, err
	}
	tr.finish()
	path, err := tr.write(o.workDir, o.workload, o.seed)
	if err != nil {
		return nil, fmt.Errorf("writing the trace: %w", err)
	}
	fmt.Fprintf(os.Stderr, "trace: %d spans in %s\n", len(tr.spans), path)

	w := out.window
	entry := func(s span) bool { return s.Name == "server.handler" && s.Node == entryNode }
	forwarded := map[int64]bool{}
	for _, s := range tr.filter(func(s span) bool { return s.Name == "server.handler" && s.Node != entryNode }) {
		if s.Parent != 0 {
			forwarded[s.Parent] = true
		}
	}
	var handlerMs, forwardMs, netMs []float64
	for _, s := range tr.filter(entry) {
		handlerMs = append(handlerMs, float64(s.dur())/1e6)
		if forwarded[s.ID] {
			forwardMs = append(forwardMs, float64(s.Self)/1e6)
		}
	}
	for _, s := range tr.filter(func(s span) bool { return s.Name == "client.roundtrip" }) {
		netMs = append(netMs, float64(s.Self)/1e6)
	}
	execSpans := func(name string) []float64 {
		var us []float64
		for _, s := range tr.filter(func(s span) bool {
			return s.Name == name && (out.replay.phase == "" || s.Phase == out.replay.phase)
		}) {
			us = append(us, float64(s.dur())/1e3)
		}
		return us
	}
	ms, us := time.Millisecond, time.Microsecond
	engineRuns := w["query_requests"] - w["coalesced_requests"]
	return map[string]metric{
		"server.handler_ms_p50":          {median(handlerMs), "ms"},
		"server.net_ms_p50":              {median(netMs), "ms"},
		"server.encode_us_p50":           {median(tr.named("server.encode", us)), "us"},
		"server.decode_us_p50":           {median(tr.named("client.decode", us)), "us"},
		"server.bytes_per_reply":         {ratio(w["result_bytes_sent"], w["query_requests"]), "bytes"},
		"server.coalesced_ratio":         {ratio(w["coalesced_requests"], w["query_requests"]), "ratio"},
		"cluster.forwarded_ratio":        {ratio(w["forwarded"], w["forwarded"]+w["served_local"]), "ratio"},
		"cluster.forward_ms_p50":         {median(forwardMs), "ms"},
		"plancache.hit_ratio":            {ratio(w["cache_hits"], w["cache_hits"]+w["cache_misses"]), "ratio"},
		"plancache.evictions_per_1k":     {1000 * ratio(w["evictions"], w["query_requests"]), "count"},
		"plancache.reopens_per_mutation": {ratio(out.withProbe["data_reopens"], float64(len(out.mutLat))), "count"},
		"plancache.invoke_ms_p50":        {median(tr.named("plancache.invoke", ms)), "ms"},
		"core.step_ms_p50":               {median(tr.named("core.step", ms)), "ms"},
		"core.mutate_us_p50":             {median(tr.named("core.mutate", us)), "us"},
		"core.reconverge_runs":           {mean(out.reconverge), "count"},
		"exec.submit_us_p50":             {median(execSpans("exec.submit")), "us"},
		"exec.run_us_p50":                {median(execSpans("exec.run")), "us"},
		"exec.derived_ratio":             {ratio(w["compile_derived"], w["compile_derived"]+w["compile_full"]), "ratio"},
		"exec.recycler_hit_ratio":        {ratio(w["buffer_hits"], w["buffer_hits"]+w["buffer_misses"]), "ratio"},
		"algebra.select_ns_per_row":      {median(tr.perRow("algebra.select")), "ns"},
		"algebra.fetch_ns_per_row":       {median(tr.perRow("algebra.fetch")), "ns"},
		"sim.virtual_us_per_run":         {ratio(w["virtual_now_ns"]/1e3, engineRuns), "us"},
		"sim.tasks_per_run":              {mean(tasks), "count"},
		"storage.append_ms_p50":          {median(tr.named("storage.append", ms)), "ms"},
		"storage.truncate_ms_p50":        {median(tr.named("storage.truncate", ms)), "ms"},
		"store.records_per_convergence":  {ratio(w["records_written"], float64(len(out.conv.ms))), "count"},
		"gen.load_s":                     {median(out.loadS) + out.dsLoadS, "s"},
		"setup.converge_s":               {median(out.convergeS), "s"},
		"traced.throughput_rps":          {float64(len(out.lat)) / out.windowS, "1/s"},
	}, nil
}
