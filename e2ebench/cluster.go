package main

import (
	"context"
	"fmt"
	"net/http"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"time"

	"popkit/internal/client"
	"popkit/internal/cluster"
	"popkit/internal/expt"
	"popkit/internal/obs"
	"popkit/internal/serve"
)

// clusterLight and clusterHeavy are replica-heavy jobs that shard across
// both workers: 16 replicas for the light class, 64 for the heavy one.
var (
	clusterLight = []expt.JobSpec{
		{Protocol: "leader", N: 256, Replicas: 16},
		{Protocol: "plurality", N: 256, Replicas: 16},
		{Protocol: "approxmajority", N: 2000, Gap: 400, Replicas: 16},
		{Protocol: "exactmajority", N: 4096, Gap: 64, Replicas: 16},
		{Protocol: "coalescence", N: 300, Replicas: 16},
		{Protocol: "aagmajority", N: 500, Gap: 2, Replicas: 16},
	}
	clusterHeavy = []expt.JobSpec{
		{Protocol: "majorityexact", N: 256, Gap: 2, Replicas: 64},
		{Protocol: "gsexactmajority", N: 500, Gap: 1, Replicas: 64},
		{Protocol: "gs18leader", N: 64, Replicas: 64},
	}
)

const (
	// clusterShardSize splits a light job into one shard per worker. The
	// automatic plan (two shards per worker) dispatches a job's shards
	// concurrently, so shard 0 can queue behind another shard of the same
	// job on its worker, and the median time to the first record spread
	// 18% over ten runs. Heavy jobs still split into eight shards, four in
	// flight.
	clusterShardSize  = 8
	clusterLightSeeds = 5
	// clusterMinRounds keeps every run above 100 light operations, the
	// fewest a p90 needs.
	clusterMinRounds = 4
)

// clusterStack is popcoord over two popserved workers, each with one job
// worker, all on loopback listeners in this process.
type clusterStack struct {
	workers []*serve.Server
	wl      []*listener
	coord   *cluster.Coordinator
	cl      *listener
}

func startCluster(reg *serve.Registry, storeDir string) (*clusterStack, error) {
	st := &clusterStack{}
	for i := 0; i < 2; i++ {
		w, err := serve.New(serve.Config{
			Registry: reg, Workers: 1, FleetWorkers: 1,
			MinJobTimeout: jobDeadline, JobTimeout: jobDeadline,
		})
		if err != nil {
			st.stop()
			return nil, err
		}
		l, err := listen(w.Handler())
		if err != nil {
			w.Close()
			st.stop()
			return nil, err
		}
		st.workers, st.wl = append(st.workers, w), append(st.wl, l)
	}
	coord, err := cluster.New(cluster.Config{
		Registry: reg, StoreDir: storeDir, ShardSize: clusterShardSize,
		MinJobTimeout: jobDeadline, JobTimeout: jobDeadline,
	})
	if err != nil {
		st.stop()
		return nil, err
	}
	st.coord = coord
	for _, l := range st.wl {
		if err := coord.Register(l.url); err != nil {
			st.stop()
			return nil, err
		}
	}
	coord.Start()
	if live := coord.ProbeNow(); live != 2 {
		st.stop()
		return nil, fmt.Errorf("%d of 2 workers live after the probe", live)
	}
	if st.cl, err = listen(coord.Handler()); err != nil {
		st.stop()
		return nil, err
	}
	return st, nil
}

func (st *clusterStack) stop() {
	if st.cl != nil {
		st.cl.stop()
	}
	if st.coord != nil {
		st.coord.Stop()
	}
	for i := range st.wl {
		st.wl[i].stop()
		st.workers[i].Close()
	}
}

// runClusterShards drives popcoord with one closed-loop client through the
// streaming client library: replica-heavy jobs sharded across both
// workers, a few repeats served from the coordinator's store and one
// overlapping sweep per round.
func runClusterShards(e *env) (*result, error) {
	reg := serve.NewRegistry()
	light, g1, err := expand(reg, clusterLight, seedRange(4001, clusterLightSeeds))
	if err != nil {
		return nil, err
	}
	heavy, g2, err := expand(reg, clusterHeavy, seedRange(6001, 1))
	if err != nil {
		return nil, err
	}
	sweepBaseSpec := clusterLight[0]
	if _, err := reg.Normalize(&sweepBaseSpec, 1<<30, 1024); err != nil {
		return nil, err
	}
	sw := sweepBase{
		base:  sweepBaseSpec,
		seeds: []int64{int64(light[0].Seed), int64(light[1].Seed), 5001, 5002},
		deps:  []int{0, 1},
	}
	res := &result{metrics: map[string]float64{}, extra: map[string]float64{}}

	var (
		setups []time.Duration
		st     *clusterStack
	)
	for i := 0; i < setupRuns; i++ {
		if st != nil {
			st.stop()
		}
		t := time.Now()
		if st, err = startCluster(reg, filepath.Join(e.dir, "coord-store-"+strconv.Itoa(i))); err != nil {
			return nil, err
		}
		c := client.New(client.Options{BaseURL: st.cl.url, HTTPClient: newHTTPClient(), Tenant: "warmup"})
		for _, w := range warmups(reg, clusterLight) {
			if err := c.Stream(context.Background(), w, func(expt.ReplicaRecord, []byte) {}); err != nil {
				st.stop()
				return nil, fmt.Errorf("warm-up %s: %w", label(w), err)
			}
		}
		setups = append(setups, time.Since(t))
	}
	defer st.stop()

	var retries atomic.Int64
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	c := client.New(client.Options{
		BaseURL: st.cl.url, HTTPClient: hc, Tenant: "bench", MaxRetries: 2,
		Logf: func(string, ...any) { retries.Add(1) },
	})
	cr := newClientRun()
	roundOps := func(r int) []planned {
		var ops []planned
		for _, s := range light {
			ops = append(ops, planned{class: "light", spec: inRound(reg, s, r)})
		}
		for _, s := range heavy {
			ops = append(ops, planned{class: "heavy", spec: inRound(reg, s, r)})
		}
		for j := 0; j < len(light); j += 7 {
			ops = append(ops, planned{class: "hit", spec: inRound(reg, light[j], r), after: []int{j}})
		}
		return append(ops, planned{class: "sweep", sweep: planSweep(reg, sw, r), after: sw.deps})
	}
	var before, after cluster.MetricsSnapshot
	if err := getJSON(hc, st.cl.url+"/metrics", &before); err != nil {
		return nil, err
	}
	var rounds []round
	start := time.Now()
	for r := 0; r < clusterMinRounds || time.Since(start) < e.seconds; r++ {
		roundStart := time.Now()
		for i, p := range order(roundOps(r), e.roundRNG(r, 3)) {
			clusterOp(c, p, r, r*10000+i+1, e.tr, cr)
		}
		rounds = endRound(rounds, roundStart)
		if r == 0 {
			if err := getJSON(hc, st.cl.url+"/metrics", &after); err != nil {
				return nil, err
			}
		}
	}
	res.attempted, res.failed, res.problems = cr.attempted, cr.failed, cr.problems

	checkStore(res, roundOps(0), before.Store, after.Store)
	if after.ShardsRedispatched != before.ShardsRedispatched {
		res.problem("%d shards re-dispatched with no worker failing", after.ShardsRedispatched-before.ShardsRedispatched)
	}

	e.e2e = endToEnd(cr.ops, rounds, setups)
	res.metrics = e.e2e
	res.notes = append(res.notes, fmt.Sprintf("rounds %d; hit_p50_ms %.4f", len(rounds), e.e2e["hit_p50_ms"]))

	// Untimed: the merged stream of one spec per protocol must equal an
	// in-process run of the same spec, byte for byte.
	seen := map[string]bool{}
	for _, s := range append(append([]expt.JobSpec(nil), light...), heavy...) {
		if seen[s.Protocol] {
			continue
		}
		seen[s.Protocol] = true
		_, lines, _, err := inprocRun(reg, s, 2, nil, offTracer, 0, 0)
		if err != nil {
			res.problem("in-process %s: %v", label(s), err)
		} else if !equalLines(cr.round0[specKey(s)], lines) {
			res.problem("%s: cluster merge differs from the in-process run", label(s))
		}
	}
	if !e.traced {
		return res, nil
	}

	m := map[string]float64{}
	serverCounts(m, before.QoS, after.QoS, before.Store, after.Store)
	m["cluster.shards"] = float64(after.ShardsDispatched - before.ShardsDispatched)
	m["cluster.redispatched"] = float64(after.ShardsRedispatched - before.ShardsRedispatched)
	m["client.retries"] = float64(retries.Load())
	m["serve.response_bytes"] = float64(cr.bytes0)

	var shardHists, waits []obs.HistogramSnapshot
	for i, l := range st.wl {
		shardHists = append(shardHists, st.coord.Metrics().WorkerShardDuration(l.url).Snapshot())
		var ws serve.MetricsSnapshot
		if err := getJSON(hc, l.url+"/metrics", &ws); err != nil {
			return nil, fmt.Errorf("worker %d metrics: %w", i, err)
		}
		if ws.QoS != nil {
			for _, t := range ws.QoS.Tenants {
				waits = append(waits, t.QueueWait)
			}
		}
	}
	res.extra["cluster.shard_p50_ms"] = histQuantile(shardHists, 0.5) / 1000
	res.extra["qos.queue_wait_p50_ms"] = histQuantile(waits, 0.5) / 1000
	res.extra["hit_p50_ms"] = e.e2e["hit_p50_ms"]

	// Speedup: one worker alone against the coordinator, for the heavy
	// specs at a fresh round cap so nothing is cached.
	var single, coord []float64
	for i, s := range heavy {
		fresh := inRound(reg, s, 1000+i)
		h, err := post(hc, st.wl[0].url+"/v1/simulate", "bench", fresh, offTracer, 0)
		if err != nil || h.status != http.StatusOK {
			return nil, fmt.Errorf("single-worker %s: status %d, %v", label(fresh), h.status, err)
		}
		single = append(single, ms(h.latency))
		coord = append(coord, ms(cr.latency0[specKey(s)]))
	}
	res.extra["cluster.speedup"] = median(single) / median(coord)

	// In-process replays of round 0's fresh jobs attribute the kernel time.
	var specs []expt.JobSpec
	for _, s := range append(append([]expt.JobSpec(nil), light...), heavy...) {
		specs = append(specs, inRound(reg, s, 0))
	}
	sp := planSweep(reg, sw, 0)
	specs = append(specs, sp.points[2:]...)
	grids := append(append(append([]expt.SweepSpec(nil), g1...), g2...), sp.req)
	ks := newKernelStats()
	replayed := map[string][][]byte{}
	for i, s := range specs {
		parent := e.tr.reserve("inproc.op", 0, 900000+i)
		t := time.Now()
		_, lines, recs, err := inprocRun(reg, s, 2, ks, e.tr, parent, 900000+i)
		e.tr.finish(parent, t, time.Now())
		if err == nil {
			err = checkRecords(s, recs)
		}
		if err != nil {
			res.problem("in-process replay: %v", err)
		}
		replayed[specKey(s)] = lines
	}
	ks.kernelMetrics(1, ks, m, res.extra)
	if err := probeLayers(e, reg, specs, grids, func(s expt.JobSpec) [][]byte { return replayed[specKey(s)] }, m); err != nil {
		return nil, err
	}
	res.metrics = m
	return res, nil
}

// clusterOp runs one planned operation through the streaming client.
func clusterOp(c *client.Client, p planned, round, opID int, tr *tracer, cr *clientRun) {
	cr.attempted++
	o := op{class: p.class, round: round}
	defer func() { cr.ops = append(cr.ops, o) }()
	fail := func(format string, args ...any) {
		o.failed = true
		cr.failed++
		cr.problem(format, args...)
	}
	parent := tr.reserve("client.op", 0, opID)
	start := time.Now()
	if p.sweep != nil {
		var results []expt.SweepResult
		sum, err := c.Sweep(context.Background(), p.sweep.req, func(r expt.SweepResult, line []byte) {
			results = append(results, r)
			if round == 0 {
				cr.bytes0 += len(line)
			}
		})
		o.latency = time.Since(start)
		tr.finish(parent, start, start.Add(o.latency))
		if err == nil {
			o.records, err = checkManifest(p.sweep, results, sum)
		}
		if err != nil {
			fail("sweep %s: %v", label(p.sweep.req.Base), err)
		}
		return
	}
	var lines [][]byte
	var recs []expt.ReplicaRecord
	err := c.Stream(context.Background(), p.spec, func(r expt.ReplicaRecord, line []byte) {
		if o.first == 0 {
			o.first = time.Since(start)
		}
		lines = append(lines, append([]byte(nil), line...))
		recs = append(recs, r)
	})
	o.latency = time.Since(start)
	tr.finish(parent, start, start.Add(o.latency))
	if err == nil {
		err = checkRecords(p.spec, recs)
	}
	if err != nil {
		fail("%v", err)
		return
	}
	o.records = len(recs)
	if want := hitOrMiss(p.class == "hit"); c.LastCacheStatus() != want {
		cr.problem("%s: X-Popkit-Cache %q, want %q", label(p.spec), c.LastCacheStatus(), want)
	}
	cr.keep(p, round, lines, o.latency)
	if round == 0 {
		cr.bytes0 += len(joinLines(lines))
	}
}
