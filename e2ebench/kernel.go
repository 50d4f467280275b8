package main

import (
	"bytes"
	"fmt"
	"time"

	"popkit/internal/expt"
	"popkit/internal/serve"
)

// kernelHeavy sizes one job per engine tier so that the frame executor and
// the dense, batch and aggregate kernels each carry a sizable share of the
// wall time. The aggregate tier starts at n = 10⁷, which only the
// in-process path allows; the gaps keep the approximate majorities short
// and decisive.
var kernelHeavy = []expt.JobSpec{
	{Protocol: "plurality", N: 16384, Replicas: 2},              // frame executor
	{Protocol: "exactmajority", N: 1000, Gap: 1, Replicas: 2},   // dense
	{Protocol: "approxmajority", N: 1e6, Gap: 2e5, Replicas: 2}, // batch
	{Protocol: "approxmajority", N: 1e7, Gap: 2e6, Replicas: 2}, // aggregate
}

// kernelFleetWidth is the replica-fleet width of the in-process jobs.
const kernelFleetWidth = 2

// runKernelTiers runs a fixed job list in process through the registry,
// as popsim -ndjson does: no HTTP, store, admission or cluster code runs.
func runKernelTiers(e *env) (*result, error) {
	reg := serve.NewRegistry()
	light, lightGrids, err := expand(reg, lightTemplates, seedRange(1001, 5))
	if err != nil {
		return nil, err
	}
	heavy, heavyGrids, err := expand(reg, kernelHeavy, seedRange(7001, 2))
	if err != nil {
		return nil, err
	}
	res := &result{metrics: map[string]float64{}, extra: map[string]float64{}}

	var setups []time.Duration
	for i := 0; i < setupRuns; i++ {
		t := time.Now()
		reg = serve.NewRegistry()
		for _, w := range warmups(reg, lightTemplates) {
			if _, _, recs, err := inprocRun(reg, w, kernelFleetWidth, nil, offTracer, 0, 0); err != nil {
				return nil, fmt.Errorf("warm-up %s: %w", label(w), err)
			} else if err := checkRecords(w, recs); err != nil {
				res.problem("warm-up: %v", err)
			}
		}
		setups = append(setups, time.Since(t))
	}

	var plan []planned
	for _, s := range light {
		plan = append(plan, planned{class: "light", spec: s})
	}
	for _, s := range heavy {
		plan = append(plan, planned{class: "heavy", spec: s})
	}
	var (
		ops      []op
		rounds   []round
		perRound []*kernelStats
		ref      = map[string][][]byte{}
		round0   = map[string][][]byte{}
	)
	start := time.Now()
	// Two rounds hold 110 light jobs, enough for a p90.
	for round := 0; round < 2 || time.Since(start) < e.seconds; round++ {
		roundStart := time.Now()
		var ks *kernelStats
		if e.traced {
			ks = newKernelStats()
			perRound = append(perRound, ks)
		}
		for i, p := range order(plan, e.roundRNG(round, 0)) {
			opID := round*1000 + i + 1
			parent := e.tr.reserve("op", 0, opID)
			t := time.Now()
			o, lines, recs, err := inprocRun(reg, p.spec, kernelFleetWidth, ks, e.tr, parent, opID)
			e.tr.finish(parent, t, time.Now())
			o.class, o.round = p.class, round
			res.attempted++
			if err == nil {
				err = checkRecords(p.spec, recs)
			}
			if err != nil {
				o.failed = true
				res.failed++
				res.problem("%v", err)
			}
			key := specKey(p.spec)
			if prev, ok := ref[key]; !ok {
				ref[key] = lines
			} else if !equalLines(prev, lines) {
				res.problem("%s streamed different bytes in round %d", label(p.spec), round)
			}
			if round == 0 {
				round0[key] = lines
			}
			ops = append(ops, o)
		}
		rounds = endRound(rounds, roundStart)
	}
	e.e2e = endToEnd(ops, rounds, setups)
	res.metrics = e.e2e
	if !e.traced {
		return res, nil
	}

	m := map[string]float64{}
	total := mergeKernelStats(perRound)
	total.kernelMetrics(len(perRound), perRound[0], m, res.extra)
	for r, ks := range perRound[1:] {
		if ks.interactions != perRound[0].interactions || ks.iterations != perRound[0].iterations || ks.retries != perRound[0].retries {
			res.problem("round %d did different work from round 0 (interactions %d vs %d, iterations %d vs %d)",
				r+1, ks.interactions, perRound[0].interactions, ks.iterations, perRound[0].iterations)
		}
	}
	// Every replica's time must land in exactly one tier or the frame
	// executor: the tiers' busy time sums to the fleet's.
	if gap := (total.tierBusy() - total.fleetBusy).Seconds(); gap < -0.001*total.fleetBusy.Seconds() || gap > 0.001*total.fleetBusy.Seconds() {
		res.problem("per-tier busy %.3fs does not sum to fleet busy %.3fs", total.tierBusy().Seconds(), total.fleetBusy.Seconds())
	}
	res.notes = append(res.notes, fmt.Sprintf("rounds %d; per-tier busy sums to fleet busy within 0.1%% (%.3fs vs %.3fs)",
		len(perRound), total.tierBusy().Seconds(), total.fleetBusy.Seconds()))
	for _, tier := range sortedKeys(total.elapsed) {
		res.notes = append(res.notes, fmt.Sprintf("  %-10s %5.1f%% of replica time", tier,
			100*total.elapsed[tier].Seconds()/total.tierBusy().Seconds()))
	}
	specs := append(append([]expt.JobSpec(nil), light...), heavy...)
	grids := append(append([]expt.SweepSpec(nil), lightGrids...), heavyGrids...)
	if err := probeLayers(e, reg, specs, grids, func(s expt.JobSpec) [][]byte { return round0[specKey(s)] }, m); err != nil {
		return nil, err
	}
	var respBytes int
	for _, lines := range round0 {
		for _, l := range lines {
			respBytes += len(l)
		}
	}
	m["serve.response_bytes"] = float64(respBytes)
	// No admission, store, cluster or HTTP client code runs here.
	for _, name := range []string{"qos.admitted.interactive", "qos.admitted.batch", "qos.admitted.whale",
		"store.hits", "store.misses", "store.coalesced", "store.bytes",
		"cluster.shards", "cluster.redispatched", "client.retries"} {
		m[name] = 0
	}
	res.metrics = m
	return res, nil
}

// warmups is one untimed job per protocol of the templates, on a seed
// outside every timed spec list.
func warmups(reg *serve.Registry, templates []expt.JobSpec) []expt.JobSpec {
	var out []expt.JobSpec
	seen := map[string]bool{}
	for _, t := range templates {
		if seen[t.Protocol] {
			continue
		}
		seen[t.Protocol] = true
		t.Seed, t.Replicas = 900001, 1
		if _, err := reg.Normalize(&t, 1<<30, 1024); err == nil {
			out = append(out, t)
		}
	}
	return out
}

func mergeKernelStats(all []*kernelStats) *kernelStats {
	t := newKernelStats()
	for _, k := range all {
		for tier, d := range k.elapsed {
			t.elapsed[tier] += d
			t.inter[tier] += k.inter[tier]
		}
		t.interactions += k.interactions
		t.iterations += k.iterations
		t.steals += k.steals
		t.retries += k.retries
		t.fleetBusy += k.fleetBusy
		t.fleetIdle += k.fleetIdle
		t.predErr += k.predErr
		t.predJobs += k.predJobs
	}
	return t
}

func equalLines(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}
