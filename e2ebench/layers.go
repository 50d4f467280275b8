package main

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"popkit/internal/baseline"
	"popkit/internal/bitmask"
	"popkit/internal/engine"
	"popkit/internal/expt"
	"popkit/internal/fleet"
	"popkit/internal/obs"
	"popkit/internal/protocols"
	"popkit/internal/qos"
	"popkit/internal/rules"
	"popkit/internal/serve"
	"popkit/internal/store"
)

// kernelStats attributes in-process replica time to the layer that ran it:
// the engine tier named in the record (dense, batch, aggregate) or the
// frame executor for the framework protocols, which carry no runner.
type kernelStats struct {
	mu      sync.Mutex
	elapsed map[string]time.Duration
	inter   map[string]uint64
	// counts are per-round work tallies, which must repeat exactly.
	interactions, iterations, steals, retries uint64
	fleetBusy, fleetIdle                      time.Duration
	// predErr sums |log2(actual/predicted)| over jobs.
	predErr  float64
	predJobs int
}

func newKernelStats() *kernelStats {
	return &kernelStats{elapsed: map[string]time.Duration{}, inter: map[string]uint64{}}
}

func tierOf(rec expt.ReplicaRecord) string {
	if rec.Runner == "" {
		return "frame"
	}
	return rec.Runner
}

func (k *kernelStats) observe(r fleet.Result) {
	rec, _ := r.Value.(expt.ReplicaRecord)
	k.mu.Lock()
	defer k.mu.Unlock()
	t := tierOf(rec)
	k.elapsed[t] += r.Elapsed
	k.inter[t] += rec.Interactions
	k.interactions += rec.Interactions
	k.iterations += uint64(rec.Iterations)
}

// inprocRun runs one spec through the registry exactly as popsim -ndjson
// does and returns the NDJSON lines and the decoded records. Replica spans
// are recorded from RunOptions.Observe under the op's span.
func inprocRun(reg *serve.Registry, spec expt.JobSpec, workers int, ks *kernelStats, tr *tracer, parent, opID int) (o op, lines [][]byte, recs []expt.ReplicaRecord, err error) {
	proto, ok := reg.Lookup(spec.Protocol)
	if !ok {
		return o, nil, nil, fmt.Errorf("unknown protocol %q", spec.Protocol)
	}
	var fs fleet.Stats
	opts := serve.RunOptions{Workers: workers, FleetStats: &fs}
	if ks != nil {
		opts.Observe = func(r fleet.Result) {
			ks.observe(r)
			if tr.on {
				end := time.Now()
				rec, _ := r.Value.(expt.ReplicaRecord)
				tr.add(layerName(tierOf(rec)), end.Add(-r.Elapsed), end, parent, opID)
			}
		}
	}
	start := time.Now()
	err = proto.Run(context.Background(), spec, opts, func(rec expt.ReplicaRecord) {
		t := time.Now()
		if o.first == 0 {
			o.first = t.Sub(start)
		}
		line, merr := rec.MarshalLine()
		if merr != nil {
			return
		}
		lines = append(lines, line)
		recs = append(recs, rec)
		tr.add("ndjson.encode", t, time.Now(), parent, opID)
	})
	o.latency = time.Since(start)
	o.records = len(lines)
	if ks != nil {
		tot := fs.Totals()
		ks.mu.Lock()
		ks.steals += tot.Steals
		ks.retries += tot.Retries
		ks.fleetBusy += tot.Busy
		ks.fleetIdle += time.Duration(len(fs.Workers()))*o.latency - tot.Busy
		if pred := qosModel.Predict(spec, proto.Kind); pred.Total > 0 && tot.Busy > 0 {
			ks.predErr += math.Abs(math.Log2(float64(tot.Busy) / float64(pred.Total)))
			ks.predJobs++
		}
		ks.mu.Unlock()
	}
	return o, lines, recs, err
}

// qosModel prices jobs with the raw kernel grid (no EWMA history), the
// prediction a fresh server makes.
var qosModel = qos.MustNewModel(qos.ModelOptions{})

func layerName(tier string) string {
	if tier == "frame" {
		return "frame"
	}
	return "engine." + tier
}

// kernelMetrics turns the tallies of `rounds` identical rounds into the
// engine, frame and fleet per-layer metrics: times per round, counts as
// given (the caller passes one round's counts).
func (k *kernelStats) kernelMetrics(rounds int, counts *kernelStats, m, extra map[string]float64) {
	perRound := func(d time.Duration) float64 { return d.Seconds() / float64(rounds) }
	for _, tier := range []string{"dense", "batch", "aggregate"} {
		dst := m
		if tier == "aggregate" {
			dst = extra
		}
		if k.inter[tier] > 0 {
			dst["engine."+tier+".ns_per_interaction"] = float64(k.elapsed[tier].Nanoseconds()) / float64(k.inter[tier])
			dst["engine."+tier+".busy_s"] = perRound(k.elapsed[tier])
		}
	}
	if k.iterations > 0 {
		m["frame.ms_per_iteration"] = ms(k.elapsed["frame"]) / float64(k.iterations)
		m["frame.busy_s"] = perRound(k.elapsed["frame"])
	}
	m["fleet.busy_s"] = perRound(k.fleetBusy)
	m["fleet.idle_s"] = perRound(k.fleetIdle)
	if k.predJobs > 0 {
		m["qos.pred_err_log2"] = k.predErr / float64(k.predJobs)
	}
	m["engine.interactions"] = float64(counts.interactions)
	m["frame.iterations"] = float64(counts.iterations)
	m["fleet.steals"] = float64(counts.steals)
	m["fleet.retries"] = float64(counts.retries)
}

// tierBusy is the replica time attributed to the engine tiers and the
// frame executor together.
func (k *kernelStats) tierBusy() time.Duration {
	var sum time.Duration
	for _, d := range k.elapsed {
		sum += d
	}
	return sum
}

// probeLayers times the benchmark's own calls into the layers the request
// path crosses before and after the kernels, over one round's fresh specs:
// decode-side normalization and hashing, sweep expansion, admission
// pricing, driver construction, and a store commit and read of each job's
// bytes in a scratch store.
func probeLayers(e *env, reg *serve.Registry, specs []expt.JobSpec, grids []expt.SweepSpec, bytesOf func(expt.JobSpec) [][]byte, m map[string]float64) error {
	const reps = 20
	timeEach := func(name string, n int, f func(i int)) []float64 {
		var xs []float64
		for i := 0; i < n; i++ {
			for r := 0; r < reps; r++ {
				t := time.Now()
				f(i)
				end := time.Now()
				xs = append(xs, us(end.Sub(t)))
				if r == 0 {
					e.tr.add(name, t, end, 0, 0)
				}
			}
		}
		return xs
	}
	m["expt.normalize_us"] = median(timeEach("expt.normalize", len(specs), func(i int) {
		s := specs[i]
		s.MaxIters, s.MaxRounds = 0, 0
		reg.Normalize(&s, 1<<30, 1024)
	}))
	m["expt.spec_hash_us"] = median(timeEach("expt.spec_hash", len(specs), func(i int) {
		expt.CanonicalSpec(specs[i])
		expt.SpecHash(specs[i])
	}))
	m["expt.sweep_expand_us"] = median(timeEach("expt.sweep_expand", len(grids), func(i int) {
		grids[i].Expand(4096)
	}))
	m["qos.predict_us"] = median(timeEach("qos.predict", len(specs), func(i int) {
		p, _ := reg.Lookup(specs[i].Protocol)
		qosModel.Predict(specs[i], p.Kind)
	}))

	var builds []float64
	seen := map[string]bool{}
	for _, s := range specs {
		key := s.Protocol + "/" + strconv.Itoa(s.N)
		if !countedProtocols[s.Protocol] || seen[key] {
			continue
		}
		seen[key] = true
		for r := 0; r < reps; r++ {
			rs, counts, hints := driverInputs(s)
			t := time.Now()
			expt.NewDriverWithHints(rs, engine.CompileProtocol(rs), counts, engine.NewRNG(1), hints)
			end := time.Now()
			builds = append(builds, us(end.Sub(t)))
			if r == 0 {
				e.tr.add("engine.build", t, end, 0, 0)
			}
		}
	}
	if len(builds) > 0 {
		m["engine.build_us"] = median(builds)
	}

	st, err := store.Open(store.Options{Dir: filepath.Join(e.dir, "scratch-store"), MaxBytes: -1, MaxEntries: -1})
	if err != nil {
		return err
	}
	defer st.Close()
	var commits, gets []float64
	for _, s := range specs {
		lines := bytesOf(s)
		if len(lines) == 0 {
			continue
		}
		t := time.Now()
		hash, err := st.Commit(s, lines)
		mid := time.Now()
		if err != nil {
			return fmt.Errorf("scratch store commit: %w", err)
		}
		got, ok := st.Get(hash)
		end := time.Now()
		if !ok || len(got) != len(lines) {
			return fmt.Errorf("scratch store lost %s", label(s))
		}
		commits = append(commits, ms(mid.Sub(t)))
		gets = append(gets, us(end.Sub(mid)))
		e.tr.add("store.commit", t, mid, 0, 0)
		e.tr.add("store.get", mid, end, 0, 0)
	}
	m["store.commit_ms"] = median(commits)
	m["store.get_us"] = median(gets)
	return nil
}

// driverInputs rebuilds the ruleset, initial counts and hints the registry
// gives a counted protocol's driver, so driver construction can be timed
// on its own.
func driverInputs(s expt.JobSpec) (*rules.Ruleset, map[bitmask.State]int64, expt.RunnerHints) {
	nA, nB := splitGap(s.N, s.Gap)
	switch s.Protocol {
	case "approxmajority":
		am := baseline.NewApproxMajority()
		return am.Rules(), map[bitmask.State]int64{am.A.Set(bitmask.State{}, true): nA, am.B.Set(bitmask.State{}, true): nB}, expt.RunnerHints{}
	case "exactmajority":
		em := baseline.NewExactMajority4()
		a := em.Strong.Set(em.IsA.Set(bitmask.State{}, true), true)
		b := em.Strong.Set(bitmask.State{}, true)
		return em.Rules(), map[bitmask.State]int64{a: nA, b: nB}, expt.RunnerHints{}
	case "coalescence":
		cl := baseline.NewCoalescenceLeader()
		return cl.Rules(), map[bitmask.State]int64{cl.L.Set(bitmask.State{}, true): int64(s.N)}, expt.RunnerHints{}
	case "gsexactmajority":
		cd := protocols.NewCDMajority(s.N)
		return cd.Rules(), cd.InitCounts(nA, nB), expt.RunnerHints{}
	case "aagmajority":
		pr := protocols.NewPRMajority(s.N)
		return pr.Rules(), pr.InitCounts(nA, nB), expt.RunnerHints{}
	default: // gs18leader
		g := protocols.NewGS18Leader(s.N)
		return g.Rules(), g.InitCounts(s.N, engine.NewRNG(1)), expt.RunnerHints{StateRich: true}
	}
}

// histQuantile estimates a quantile of a server histogram by interpolating
// inside the power-of-two bucket that holds it, so the estimate moves with
// the samples rather than snapping to a bucket bound.
func histQuantile(hs []obs.HistogramSnapshot, q float64) float64 {
	type bucket struct {
		ub    float64
		count int64
	}
	byUB := map[float64]int64{}
	var total int64
	for _, h := range hs {
		for k, c := range h.BucketsUS {
			ub, err := strconv.ParseFloat(k, 64)
			if err == nil {
				byUB[ub] += c
				total += c
			}
		}
	}
	if total == 0 {
		return math.NaN()
	}
	var bs []bucket
	for ub, c := range byUB {
		bs = append(bs, bucket{ub, c})
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].ub < bs[j].ub })
	rank := q * float64(total)
	var seen float64
	for _, b := range bs {
		if seen+float64(b.count) >= rank {
			lo := b.ub / 2
			return lo + (b.ub-lo)*(rank-seen)/float64(b.count)
		}
		seen += float64(b.count)
	}
	return bs[len(bs)-1].ub
}
