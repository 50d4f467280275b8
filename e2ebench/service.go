package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"popkit/internal/expt"
	"popkit/internal/obs"
	"popkit/internal/serve"
)

// The heavy client's jobs. Three approximate majorities of about 200 ms
// each (ten times a light job, far inside the deadline) make the heavy
// class; the cost model prices them interactive whatever its correction.
// Two exact majorities run only ~20 ms, but the model classes them batch:
// their raw prediction is 74 ms and the batch tier's correction sits near
// its cap of 100, because the light batch-tier jobs are underpriced. They
// count towards throughput but, being neither light nor heavy in cost,
// towards no latency class.
var (
	serviceHeavy = expt.JobSpec{Protocol: "approxmajority", N: 1e5, Gap: 5000, Replicas: 2}
	serviceBatch = expt.JobSpec{Protocol: "exactmajority", N: 2e4, Gap: 2000, Replicas: 2}
)

// tieSpec is exactmajority at even n with gap 0. The normalizer accepts the
// exact tie, the 4-state protocol can never reach its stop condition, and
// the job runs until its deadline, then ends its stream with a timeout
// record, an in-band error line or both: every such request fails,
// whatever the seed. At n = 64 its raw price is under a millisecond, so
// the model classes it interactive at any correction.
var tieSpec = expt.JobSpec{Protocol: "exactmajority", N: 64, Seed: 9001, Replicas: 1}

// sweepTemplates index lightTemplates; each round sends one sweep per entry
// over two seeds the light client already computed and two new ones.
var sweepTemplates = []int{0, 3, 4, 8}

const (
	serviceColdSeeds = 16
	serviceWorkers   = 2
)

type serviceMix struct {
	e      *env
	reg    *serve.Registry
	cold   []expt.JobSpec
	heavy  []expt.JobSpec
	batch  []expt.JobSpec
	tie    expt.JobSpec
	grids  []expt.SweepSpec
	sweeps []sweepBase
}

// runServiceMix drives popserved, store on, with two closed-loop clients
// acting as two tenants: a light client sending small cold jobs, repeats
// of its own earlier jobs and overlapping sweeps, and a heavy client
// sending batch-class jobs plus one exact-tie exactmajority per round.
// The clients meet at the end of every round, so every run attempts whole
// rounds of the same operations.
func runServiceMix(e *env) (*result, error) {
	s := &serviceMix{e: e, reg: serve.NewRegistry()}
	var err error
	var g1, g2, g3 []expt.SweepSpec
	if s.cold, g1, err = expand(s.reg, lightTemplates, seedRange(2001, serviceColdSeeds)); err != nil {
		return nil, err
	}
	if s.heavy, g2, err = expand(s.reg, []expt.JobSpec{serviceHeavy}, seedRange(8001, 3)); err != nil {
		return nil, err
	}
	if s.batch, g3, err = expand(s.reg, []expt.JobSpec{serviceBatch}, seedRange(8101, 2)); err != nil {
		return nil, err
	}
	s.tie = tieSpec
	if _, err := s.reg.Normalize(&s.tie, 1<<30, 1024); err != nil {
		return nil, err
	}
	s.grids = append(append(g1, g2...), g3...)
	for k, ti := range sweepTemplates {
		base := lightTemplates[ti]
		if _, err := s.reg.Normalize(&base, 1<<30, 1024); err != nil {
			return nil, err
		}
		first := ti * serviceColdSeeds
		s.sweeps = append(s.sweeps, sweepBase{
			base:  base,
			seeds: []int64{int64(s.cold[first].Seed), int64(s.cold[first+1].Seed), int64(3001 + 10*k), int64(3002 + 10*k)},
			deps:  []int{first, first + 1},
		})
	}
	res := &result{metrics: map[string]float64{}, extra: map[string]float64{}}

	var (
		setups []time.Duration
		srv    *serve.Server
		lst    *listener
	)
	for i := 0; i < setupRuns; i++ {
		if lst != nil {
			lst.stop()
			srv.Close()
		}
		t := time.Now()
		srv, err = serve.New(serve.Config{
			Registry:      s.reg,
			Workers:       serviceWorkers,
			FleetWorkers:  1,
			StoreDir:      filepath.Join(e.dir, "store-"+strconv.Itoa(i)),
			MinJobTimeout: jobDeadline,
			JobTimeout:    jobDeadline,
		})
		if err != nil {
			return nil, err
		}
		if lst, err = listen(srv.Handler()); err != nil {
			return nil, err
		}
		c := newHTTPClient()
		for _, w := range warmups(s.reg, lightTemplates) {
			o, err := post(c, lst.url+"/v1/simulate", "warmup", w, offTracer, 0)
			if err != nil || o.status != http.StatusOK {
				return nil, fmt.Errorf("warm-up %s: status %d, %v", label(w), o.status, err)
			}
		}
		c.CloseIdleConnections()
		setups = append(setups, time.Since(t))
	}
	defer func() {
		lst.stop()
		srv.Close()
	}()

	lightC, heavyC := newHTTPClient(), newHTTPClient()
	defer lightC.CloseIdleConnections()
	defer heavyC.CloseIdleConnections()
	light, heavy := newClientRun(), newClientRun()
	var before, after serve.MetricsSnapshot
	if err := getJSON(lightC, lst.url+"/metrics", &before); err != nil {
		return nil, err
	}
	var rounds []round
	start := time.Now()
	for r := 0; r == 0 || time.Since(start) < e.seconds; r++ {
		roundStart := time.Now()
		var wg sync.WaitGroup
		wg.Add(2)
		go func(r int) {
			defer wg.Done()
			for i, p := range order(s.lightRound(r), e.roundRNG(r, 1)) {
				s.do(lightC, lst.url, "light", p, r, r*10000+i+1, light)
			}
		}(r)
		go func(r int) {
			defer wg.Done()
			for i, p := range order(s.heavyRound(r), e.roundRNG(r, 2)) {
				s.do(heavyC, lst.url, "heavy", p, r, r*10000+5000+i+1, heavy)
			}
		}(r)
		wg.Wait()
		rounds = endRound(rounds, roundStart)
		if r == 0 {
			if err := getJSON(lightC, lst.url+"/metrics", &after); err != nil {
				return nil, err
			}
		}
	}
	for _, c := range []*clientRun{light, heavy} {
		res.attempted += c.attempted
		res.failed += c.failed
		res.problems = append(res.problems, c.problems...)
	}
	checkStore(res, append(s.lightRound(0), s.heavyRound(0)...), before.Store, after.Store)
	e.e2e = endToEnd(append(light.ops, heavy.ops...), rounds, setups)
	res.metrics = e.e2e
	res.notes = append(res.notes, fmt.Sprintf("rounds %d; hit_p50_ms %.4f", len(rounds), e.e2e["hit_p50_ms"]))
	if !e.traced {
		return res, nil
	}
	var final serve.MetricsSnapshot
	if err := getJSON(lightC, lst.url+"/metrics", &final); err != nil {
		return nil, err
	}
	return res, s.traceLayers(res, light, heavy, before, after, final)
}

// lightRound is the light client's operations in round r.
func (s *serviceMix) lightRound(r int) []planned {
	var ops []planned
	for _, c := range s.cold {
		ops = append(ops, planned{class: "light", spec: inRound(s.reg, c, r)})
	}
	for j, c := range s.cold {
		if j%3 != 2 {
			ops = append(ops, planned{class: "hit", spec: inRound(s.reg, c, r), after: []int{j}})
		}
	}
	for _, sw := range s.sweeps {
		ops = append(ops, planned{class: "sweep", sweep: planSweep(s.reg, sw, r), after: sw.deps})
	}
	return ops
}

func (s *serviceMix) heavyRound(r int) []planned {
	var ops []planned
	for _, h := range s.heavy {
		ops = append(ops, planned{class: "heavy", spec: inRound(s.reg, h, r)})
	}
	for _, b := range s.batch {
		ops = append(ops, planned{class: "batch", spec: inRound(s.reg, b, r)})
	}
	return append(ops, planned{class: "tie", spec: s.tie})
}

// do runs one planned operation and checks its output.
func (s *serviceMix) do(c *http.Client, base, tenant string, p planned, round, opID int, cr *clientRun) {
	cr.attempted++
	o := op{class: p.class, round: round}
	defer func() { cr.ops = append(cr.ops, o) }()
	fail := func(format string, args ...any) {
		o.failed = true
		cr.failed++
		if format != "" {
			cr.problem(format, args...)
		}
	}
	if p.sweep != nil {
		h, err := post(c, base+"/v1/sweep", tenant, p.sweep.req, s.e.tr, opID)
		o.latency = h.latency
		if err != nil || h.status != http.StatusOK {
			fail("sweep %s: status %d, %v", label(p.sweep.req.Base), h.status, err)
			return
		}
		if round == 0 {
			cr.bytes0 += h.bytes
		}
		recs, err := checkSweep(p.sweep, h.lines)
		o.records = recs
		if err != nil {
			fail("sweep %s: %v", label(p.sweep.req.Base), err)
		}
		return
	}
	h, err := post(c, base+"/v1/simulate", tenant, p.spec, s.e.tr, opID)
	o.latency, o.first = h.latency, h.first
	if err == nil && p.class == "tie" && h.status/100 == 4 {
		fail("") // a normalizer that refuses the tie
		return
	}
	if err != nil || h.status != http.StatusOK {
		fail("%s: status %d, %v", label(p.spec), h.status, err)
		return
	}
	if p.class == "tie" {
		if timedOut(h.lines) {
			fail("") // the known fault: the expected outcome today
			return
		}
		// A fixed normalizer would answer the tie; then it must still
		// reach a consensus.
		recs, err := parseRecords(h.lines)
		if err != nil || len(recs) != 1 || !recs[0].Converged || (recs[0].Counts["A"] != 0 && recs[0].Counts["A"] != int64(p.spec.N)) {
			fail("tie: unexpected output %s", h.lines)
			return
		}
		o.records = len(recs)
		return
	}
	if round == 0 {
		cr.bytes0 += h.bytes
	}
	recs, err := parseRecords(h.lines)
	if err == nil {
		err = checkRecords(p.spec, recs)
	}
	if err != nil {
		fail("%v", err)
		return
	}
	o.records = len(recs)
	if want := hitOrMiss(p.class == "hit"); h.cache != want {
		cr.problem("%s: X-Popkit-Cache %q, want %q", label(p.spec), h.cache, want)
	}
	cr.keep(p, round, h.lines, h.latency)
}

// checkSweep compares a sweep manifest with the generator's prediction and
// returns the record count the manifest reports.
func checkSweep(p *sweepPlan, lines [][]byte) (int, error) {
	if len(lines) != len(p.points)+1 {
		return 0, fmt.Errorf("%d manifest lines, want %d points and a summary", len(lines), len(p.points))
	}
	results := make([]expt.SweepResult, len(p.points))
	for i, l := range lines[:len(p.points)] {
		if err := json.Unmarshal(l, &results[i]); err != nil {
			return 0, err
		}
	}
	sum, ok := expt.ParseSummaryLine(lines[len(lines)-1])
	if !ok {
		return 0, fmt.Errorf("no summary line: %s", lines[len(lines)-1])
	}
	return checkManifest(p, results, sum)
}

// traceLayers fills the per-layer metrics of a traced run: the server's
// own counters over round 0, and in-process replays of round 0's fresh
// jobs, which attribute kernel time and give the HTTP path's overhead.
func (s *serviceMix) traceLayers(res *result, light, heavy *clientRun, before, after, final serve.MetricsSnapshot) error {
	m := map[string]float64{}
	serverCounts(m, before.QoS, after.QoS, before.Store, after.Store)
	m["serve.response_bytes"] = float64(light.bytes0 + heavy.bytes0)
	m["cluster.shards"], m["cluster.redispatched"], m["client.retries"] = 0, 0, 0
	var waits []obs.HistogramSnapshot
	if final.QoS != nil {
		for name, t := range final.QoS.Tenants {
			if name != "warmup" {
				waits = append(waits, t.QueueWait)
			}
		}
	}
	res.extra["qos.queue_wait_p50_ms"] = histQuantile(waits, 0.5) / 1000
	res.extra["store.server_read_p50_us"] = histQuantile([]obs.HistogramSnapshot{final.Store.ReadLatency}, 0.5)
	res.extra["hit_p50_ms"] = s.e.e2e["hit_p50_ms"]

	fresh := map[string][][]byte{}
	var specs []expt.JobSpec
	for _, cr := range []*clientRun{light, heavy} {
		for key, lines := range cr.round0 {
			fresh[key] = lines
		}
	}
	for _, sp := range append(append(append([]expt.JobSpec(nil), s.cold...), s.heavy...), s.batch...) {
		specs = append(specs, inRound(s.reg, sp, 0))
	}
	var grids []expt.SweepSpec
	grids = append(grids, s.grids...)
	for _, sw := range s.sweeps {
		p := planSweep(s.reg, sw, 0)
		grids = append(grids, p.req)
		specs = append(specs, p.points[2:]...)
	}
	ks := newKernelStats()
	var overhead []float64
	for i, sp := range specs {
		parent := s.e.tr.reserve("inproc.op", 0, 900000+i)
		t := time.Now()
		o, lines, recs, err := inprocRun(s.reg, sp, 1, ks, s.e.tr, parent, 900000+i)
		s.e.tr.finish(parent, t, time.Now())
		if err == nil {
			err = checkRecords(sp, recs)
		}
		if err != nil {
			res.problem("in-process replay: %v", err)
			continue
		}
		key := specKey(sp)
		if want, ok := fresh[key]; ok && !equalLines(want, lines) {
			res.problem("%s: HTTP bytes differ from the in-process run", label(sp))
		}
		fresh[key] = lines
		if lat, ok := light.latency0[key]; ok {
			overhead = append(overhead, ms(lat-o.latency))
		}
	}
	ks.kernelMetrics(1, ks, m, res.extra)
	res.extra["serve.overhead_ms"] = median(overhead)
	if err := probeLayers(s.e, s.reg, specs, grids, func(sp expt.JobSpec) [][]byte { return fresh[specKey(sp)] }, m); err != nil {
		return err
	}
	res.metrics = m
	return nil
}

// timedOut reports whether a job stream ended at its deadline: a timeout
// record, the in-band error line, or both. Which of the two a stream
// carries varies from run to run (see README).
func timedOut(lines [][]byte) bool {
	if len(lines) == 0 {
		return false
	}
	var doc struct {
		Error   string `json:"error"`
		ErrKind string `json:"err_kind"`
	}
	if json.Unmarshal(lines[len(lines)-1], &doc) != nil {
		return false
	}
	return doc.ErrKind == "timeout" || strings.Contains(doc.Error, "deadline exceeded")
}
