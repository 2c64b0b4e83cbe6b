package main

import (
	"fdp/internal/obs"
	"fdp/internal/stats"
)

// perLayer are the metrics of a traced run, one module of the program at
// a time. Each names the module it measures; README.md maps each to the
// end-to-end metric and workload it should move.
var perLayer = []metricDef{
	// synth: workload generation, paid in every set-up.
	{"synth.gen_s", "s", "lower"},
	{"synth.heap_mb", "MiB", "lower"},

	// core: the cycle loop, timed on the golden pairs after the batches.
	{"core.minst_per_s", "Minst/s", "higher"},
	{"core.fdp_server_a.minst_per_s", "Minst/s", "higher"},
	{"core.baseline_client_a.minst_per_s", "Minst/s", "higher"},
	{"core.eip_server_b.minst_per_s", "Minst/s", "higher"},
	{"core.ghrfix_spec_a.minst_per_s", "Minst/s", "higher"},
	{"core.ns_per_cycle", "ns", "lower"},
	{"core.steady_allocs", "count", "lower"},
	{"core.new_ms", "ms", "lower"},

	// core: functional warmup and checkpoints.
	{"core.ffwd_minst_per_s", "Minst/s", "higher"},
	{"core.advance_oracle_minst_per_s", "Minst/s", "higher"},
	{"core.snapshot_ms", "ms", "lower"},
	{"core.restore_ms", "ms", "lower"},
	{"core.snapshot_bytes", "bytes", "lower"},

	// The modelled structures, each fed a recorded retired stream.
	{"bpred.tage_ns_per_branch", "ns", "lower"},
	{"indirect.ittage_ns_per_branch", "ns", "lower"},
	{"btb.lookup_ns", "ns", "lower"},
	{"cache.l1i_probe_ns", "ns", "lower"},
	{"ftq.push_pop_ns", "ns", "lower"},
	{"prefetch.eip_ns_per_access", "ns", "lower"},
	{"prefetch.djolt_ns_per_access", "ns", "lower"},
	{"prefetch.fnlmma_ns_per_access", "ns", "lower"},

	// The modelled design, exact counts over a batch's distinct results;
	// every ratio comes with its base.
	{"sim_ipc_geomean", "inst/cycle", "higher"},
	{"sim_l1i_mpki_mean", "1/kinst", "lower"},
	{"sim.runs", "count", "higher"},
	{"sim.insts", "count", "higher"},
	{"sim.cycles", "count", "lower"},
	{"btb.lookups", "count", "lower"},
	{"btb.hit_rate", "frac", "higher"},
	{"bpred.branch_mpki", "1/kinst", "lower"},
	{"cache.l1i_mpki", "1/kinst", "lower"},
	{"prefetch.issued", "count", "lower"},
	{"prefetch.useful_per_issued", "frac", "higher"},
	{"core.pfc_resteers", "count", "lower"},
	{"core.pfc_wrong_per_resteer", "frac", "lower"},
	{"ftq.mean_occupancy", "entries", "higher"},
	{"core.acct.delivering_share", "frac", "higher"},
	{"core.acct.l1i_miss_starved_share", "frac", "lower"},
	{"core.acct.ftq_empty_share", "frac", "lower"},
	{"core.acct.resteer_recovery_share", "frac", "lower"},
	{"core.acct.flush_recovery_share", "frac", "lower"},
	{"core.acct.mshr_backpressure_share", "frac", "lower"},
	{"core.acct.fetch_partial_share", "frac", "lower"},

	// runner: the job lifecycle spans of a traced batch.
	{"runner.simulate_s", "s", "lower"},
	{"runner.queued_s", "s", "lower"},
	{"runner.cache_write_s", "s", "lower"},
	{"runner.restore_s", "s", "lower"},
	{"runner.ckpt_wait_s", "s", "lower"},
	{"runner.ffwd_s", "s", "lower"},
	{"runner.job_p50_ms", "ms", "lower"},
	{"runner.job_p90_ms", "ms", "lower"},
	{"runner.cache_hits", "count", "higher"},
	{"runner.cache_misses", "count", "lower"},
	{"runner.utilisation", "frac", "higher"},
	{"runner.overhead_s", "s", "lower"},
	// runner: the result cache, timed after the batches.
	{"runner.cache_get_us_p50", "us", "lower"},
	{"runner.cache_get_us_p99", "us", "lower"},
	{"runner.cache_put_us", "us", "lower"},
	{"runner.cache_entry_bytes", "bytes", "lower"},

	// dist: leases in a traced batch, and the result envelope.
	{"dist.lease_s", "s", "lower"},
	{"dist.leases", "count", "lower"},
	{"dist.reassigns", "count", "lower"},
	{"dist.fallbacks", "count", "lower"},
	{"dist.seal_us", "us", "lower"},
	{"dist.open_us", "us", "lower"},
	{"dist.envelope_bytes", "bytes", "lower"},

	// experiments/repro: expectations met by a batch's scorecards.
	{"repro.checks_passed", "count", "higher"},

	// Self time per layer in a traced batch: span time minus the part
	// its non-waiting children cover.
	{"self.fdp_s", "s", "lower"},
	{"self.experiments_s", "s", "lower"},
	{"self.runner_s", "s", "lower"},
	{"self.core_s", "s", "lower"},
	{"self.dist_s", "s", "lower"},

	// Traced batch wall time over untraced, minus one.
	{"trace.overhead_frac", "frac", "lower"},
}

// Batch tags of spans outside the timed batches.
const (
	batchSetup = -1
	batchProbe = -2
)

// layerMetrics computes the per-layer metrics that come from the timed
// batches: span totals per traced batch (medians over traced batches),
// the modelled design of the first batch, and the tracing overhead.
func layerMetrics(tr *tracer, batches []batchStat, parallel int) map[string]float64 {
	m := designMetrics(batches[0].out.runs)
	m["repro.checks_passed"] = float64(batches[0].out.checksPassed)

	var gens []float64
	spansOf := map[int][]int{}
	for i, s := range tr.spans {
		if s.Batch == batchSetup && s.Layer == "synth" && s.Name == "WorkloadsWithSeedOffset" {
			gens = append(gens, float64(s.Dur)/1e6)
		}
		spansOf[s.Batch] = append(spansOf[s.Batch], i)
	}
	m["synth.gen_s"] = median(gens)

	self := selfTimes(tr.spans)
	per := map[string][]float64{}
	var tracedWalls, plainWalls []float64
	for _, bs := range batches {
		wall := bs.out.timed.wall.Seconds()
		if !bs.traced {
			plainWalls = append(plainWalls, wall)
			continue
		}
		tracedWalls = append(tracedWalls, wall)
		for k, v := range batchLayers(tr.spans, spansOf[bs.index], self, bs.out, parallel) {
			per[k] = append(per[k], v)
		}
	}
	for k, xs := range per {
		m[k] = median(xs)
	}
	m["trace.overhead_frac"] = median(tracedWalls)/median(plainWalls) - 1
	return m
}

// batchLayers computes one traced batch's span metrics.
func batchLayers(spans []span, idx []int, self []int64, out batchOut, parallel int) map[string]float64 {
	sum := map[string]float64{}    // seconds per runner span kind
	selfBy := map[string]float64{} // self seconds per layer
	var sims []float64
	var jobs, hits int
	for _, i := range idx {
		s := spans[i]
		d := float64(s.Dur) / 1e6
		selfBy[s.Layer] += float64(self[i]) / 1e6
		switch s.Name {
		case obs.SpanSimulate.String():
			sims = append(sims, d)
		case obs.SpanQueued.String():
			jobs++ // every job is queued once
		case obs.SpanCacheHit.String():
			hits++
		}
		sum[s.Name] += d
	}
	// Busy time is time simulating: the runner's simulation phases, leases
	// to dist workers, or direct fdp.Simulate calls.
	wall := out.timed.wall.Seconds()
	busy := sum["simulate"] + sum["ffwd"] + sum["restore"] + sum["lease"] + sum["Simulate"]
	return map[string]float64{
		"runner.simulate_s":    sum["simulate"],
		"runner.queued_s":      sum["queued"],
		"runner.cache_write_s": sum["cache_write"],
		"runner.restore_s":     sum["restore"],
		"runner.ckpt_wait_s":   sum["ckpt_wait"],
		"runner.ffwd_s":        sum["ffwd"],
		"runner.job_p50_ms":    percentile(sims, 50) * 1e3,
		"runner.job_p90_ms":    percentile(sims, 90) * 1e3,
		"runner.cache_hits":    float64(hits),
		"runner.cache_misses":  float64(jobs - hits),
		"runner.utilisation":   busy / (wall * float64(parallel)),
		"runner.overhead_s":    wall*float64(parallel) - busy,
		"dist.lease_s":         sum["lease"],
		"dist.leases":          float64(out.fleet.Leases),
		"dist.reassigns":       float64(out.fleet.Reassigns),
		"dist.fallbacks":       float64(out.fleet.Fallbacks),
		"self.fdp_s":           selfBy["fdp"],
		"self.experiments_s":   selfBy["experiments"],
		"self.runner_s":        selfBy["runner"],
		"self.core_s":          selfBy["core"],
		"self.dist_s":          selfBy["dist"],
	}
}

// designMetrics aggregates the modelled design over a batch's results.
func designMetrics(runs []*stats.Run) map[string]float64 {
	var t stats.Run
	var mpkis []float64
	for _, r := range runs {
		t.Cycles += r.Cycles
		t.Instructions += r.Instructions
		t.Mispredictions += r.Mispredictions
		t.BTBLookups += r.BTBLookups
		t.BTBHits += r.BTBHits
		t.L1IMisses += r.L1IMisses
		t.PrefetchIssued += r.PrefetchIssued
		t.PrefetchUseful += r.PrefetchUseful
		t.PFCResteers += r.PFCResteers
		t.PFCWrong += r.PFCWrong
		t.FTQOccupancySum += r.FTQOccupancySum
		for b, n := range r.Acct {
			t.Acct[b] += n
		}
		mpkis = append(mpkis, r.L1IMPKI())
	}
	m := map[string]float64{
		"sim_ipc_geomean":            stats.GeoMeanIPC(runs),
		"sim_l1i_mpki_mean":          stats.Mean(mpkis),
		"sim.runs":                   float64(len(runs)),
		"sim.insts":                  float64(t.Instructions),
		"sim.cycles":                 float64(t.Cycles),
		"btb.lookups":                float64(t.BTBLookups),
		"btb.hit_rate":               t.BTBHitRate(),
		"bpred.branch_mpki":          t.BranchMPKI(),
		"cache.l1i_mpki":             t.L1IMPKI(),
		"prefetch.issued":            float64(t.PrefetchIssued),
		"prefetch.useful_per_issued": ratio(t.PrefetchUseful, t.PrefetchIssued),
		"core.pfc_resteers":          float64(t.PFCResteers),
		"core.pfc_wrong_per_resteer": ratio(t.PFCWrong, t.PFCResteers),
		"ftq.mean_occupancy":         t.MeanFTQOccupancy(),
	}
	for b, name := range obs.AcctBucketNames {
		m["core.acct."+name+"_share"] = t.AcctShare(b)
	}
	return m
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
