package main

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"time"

	"popkit/internal/expt"
	"popkit/internal/qos"
	"popkit/internal/serve"
	"popkit/internal/store"
)

// env is one run's context.
type env struct {
	workload string
	seed     uint64
	seconds  time.Duration
	traced   bool
	dir      string // scratch directory for stores, removed at exit
	tr       *tracer
	// e2e holds this run's end-to-end figures, traced runs included, so a
	// traced run can report its own overhead.
	e2e map[string]float64
}

// setupRuns is how many times each workload builds its stack; setup_s is
// the median, which keeps one slow page-in or GC from moving it.
const setupRuns = 9

// Job deadline floor and cap of every server, set equal so no outcome
// depends on the cost model's EWMA, and above every legitimate operation.
const jobDeadline = 2 * time.Second

// lightTemplates are the small, construction-heavy jobs every workload
// shares: each registry protocol at small n with 1–4 replicas. leaderexact
// is left out: some of its replicas end with no leader (see README).
var lightTemplates = []expt.JobSpec{
	{Protocol: "leader", N: 256, Replicas: 2},
	{Protocol: "majority", N: 256, Gap: 64, Replicas: 1},
	{Protocol: "majorityexact", N: 256, Gap: 2, Replicas: 1},
	{Protocol: "plurality", N: 256, Replicas: 2},
	{Protocol: "approxmajority", N: 2000, Gap: 400, Replicas: 4},
	{Protocol: "exactmajority", N: 300, Gap: 4, Replicas: 1},
	{Protocol: "exactmajority", N: 4096, Gap: 64, Replicas: 3},
	{Protocol: "coalescence", N: 300, Replicas: 3},
	{Protocol: "gsexactmajority", N: 500, Gap: 1, Replicas: 1},
	{Protocol: "aagmajority", N: 500, Gap: 2, Replicas: 2},
	{Protocol: "gs18leader", N: 64, Replicas: 1},
}

// seedRange returns count consecutive spec seeds starting at from.
func seedRange(from, count int) *expt.Axis {
	vals := make([]int64, count)
	for i := range vals {
		vals[i] = int64(from + i)
	}
	return expt.AxisOf(vals...)
}

// expand turns templates into normalized specs with SweepSpec.Expand, one
// spec per (template, seed). The grids are kept: the traced run times their
// expansion.
func expand(reg *serve.Registry, templates []expt.JobSpec, seeds *expt.Axis) ([]expt.JobSpec, []expt.SweepSpec, error) {
	var specs []expt.JobSpec
	var grids []expt.SweepSpec
	for _, t := range templates {
		g := expt.SweepSpec{Base: t, Grid: expt.SweepGrid{Seed: seeds}}
		pts, err := g.Expand(4096)
		if err != nil {
			return nil, nil, err
		}
		for _, p := range pts {
			if _, err := reg.Normalize(&p, 1<<30, 1024); err != nil {
				return nil, nil, fmt.Errorf("%s: %w", label(p), err)
			}
			specs = append(specs, p)
		}
		grids = append(grids, g)
	}
	return specs, grids, nil
}

// inRound gives a spec round r's cache identity. A store would serve
// round 1's repeat of a round-0 spec from its cache, so each round raises
// the iteration or round cap by r: the cap is never reached, so every
// round simulates the same trajectories and streams the same bytes, while
// the spec hash — and hence the cache key — is new.
func inRound(reg *serve.Registry, s expt.JobSpec, r int) expt.JobSpec {
	p, _ := reg.Lookup(s.Protocol)
	if p.Kind == "framework" {
		s.MaxIters = 2000 + r
	} else {
		s.MaxRounds = 1e6 + float64(r)
	}
	return s
}

// planned is one operation of a round before ordering.
type planned struct {
	class string // light, heavy, batch, hit, sweep or tie
	spec  expt.JobSpec
	sweep *sweepPlan
	// after lists planned ops that must complete first: a hit repeats an
	// earlier miss, a sweep overlaps earlier points.
	after []int
}

// sweepPlan is a /v1/sweep request and the manifest the generator
// predicts for it.
type sweepPlan struct {
	req    expt.SweepSpec
	points []expt.JobSpec // normalized, in manifest order
	cache  []string       // predicted cache status per point
}

// order returns the round's operations in a seed-chosen order: the
// independent ops are shuffled, then each dependent op is placed at a
// random position after everything it depends on. The multiset of ops is
// the same for every seed, so per-round counts do not depend on it.
func order(ops []planned, rng *rand.Rand) []planned {
	var seq, deps []int
	for i, o := range ops {
		if len(o.after) == 0 {
			seq = append(seq, i)
		} else {
			deps = append(deps, i)
		}
	}
	rng.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
	for _, i := range deps {
		lo := 0
		for p, j := range seq {
			if slices.Contains(ops[i].after, j) {
				lo = p + 1
			}
		}
		seq = slices.Insert(seq, lo+rng.IntN(len(seq)-lo+1), i)
	}
	out := make([]planned, len(seq))
	for k, i := range seq {
		out[k] = ops[i]
	}
	return out
}

// roundRNG derives the ordering stream of one round (and one client).
func (e *env) roundRNG(round, client int) *rand.Rand {
	return rand.New(rand.NewPCG(e.seed, uint64(round)<<8|uint64(client)))
}

// specKey identifies a spec's output bytes: the spec without its round
// cap, which does not change the records.
func specKey(s expt.JobSpec) string {
	s.MaxIters, s.MaxRounds = 0, 0
	return string(expt.CanonicalSpec(s))
}

// sweepBase is one of the light client's sweeps, before its round cap.
type sweepBase struct {
	base  expt.JobSpec
	seeds []int64 // two already computed (hits), then two new (misses)
	deps  []int   // indexes of the cold specs it overlaps
}

// planSweep is round r's request for sw and the manifest the generator
// predicts: the two overlapping points hit, the two new ones miss.
func planSweep(reg *serve.Registry, sw sweepBase, r int) *sweepPlan {
	base := inRound(reg, sw.base, r)
	p := &sweepPlan{req: expt.SweepSpec{Base: base, Grid: expt.SweepGrid{Seed: expt.AxisOf(sw.seeds...)}}}
	for i, seed := range sw.seeds {
		pt := base
		pt.Seed = uint64(seed)
		p.points = append(p.points, pt)
		p.cache = append(p.cache, hitOrMiss(i < 2))
	}
	return p
}

// checkStore compares round 0's store counters with the generator's
// prediction for ops: a repeat hits, a sweep's two overlapping points hit
// and its new ones miss, every other job misses, and nothing coalesces.
func checkStore(res *result, ops []planned, before, after *store.Snapshot) {
	hits, misses := 0, 0
	for _, p := range ops {
		switch {
		case p.sweep != nil:
			for _, c := range p.sweep.cache {
				if c == "hit" {
					hits++
				} else {
					misses++
				}
			}
		case p.class == "hit":
			hits++
		default:
			misses++
		}
	}
	if before == nil || after == nil {
		res.problem("server reports no store")
		return
	}
	got := [3]int64{after.Hits - before.Hits, after.Misses - before.Misses, after.Coalesced - before.Coalesced}
	if got != [3]int64{int64(hits), int64(misses), 0} {
		res.problem("round 0 store hits/misses/coalesced %v, generator predicts [%d %d 0]", got, hits, misses)
	}
}

// serverCounts fills the admission and store counts of round 0 from a
// server's /metrics snapshots taken around it.
func serverCounts(m map[string]float64, qb, qa *qos.Snapshot, sb, sa *store.Snapshot) {
	admitted := func(q *qos.Snapshot, class string) int64 {
		var n int64
		if q != nil {
			for _, t := range q.Tenants {
				n += t.Admitted[class]
			}
		}
		return n
	}
	for _, class := range []string{"interactive", "batch", "whale"} {
		m["qos.admitted."+class] = float64(admitted(qa, class) - admitted(qb, class))
	}
	m["store.hits"] = float64(sa.Hits - sb.Hits)
	m["store.misses"] = float64(sa.Misses - sb.Misses)
	m["store.coalesced"] = float64(sa.Coalesced - sb.Coalesced)
	m["store.bytes"] = float64(sa.Bytes - sb.Bytes)
}

// clientRun collects one client's outcomes; each client goroutine owns
// one, so no locking is needed until the merge.
type clientRun struct {
	ops       []op
	attempted int
	failed    int
	problems  []string
	ref       map[string][]byte // record bytes by specKey
	round0    map[string][][]byte
	latency0  map[string]time.Duration
	bytes0    int // response bytes of round 0's completed ops
}

func newClientRun() *clientRun {
	return &clientRun{ref: map[string][]byte{}, round0: map[string][][]byte{}, latency0: map[string]time.Duration{}}
}

func (c *clientRun) problem(format string, args ...any) {
	if len(c.problems) < 20 {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
}

// keep checks a job's records against the first run of the same spec —
// every repeat and every later round must stream the same bytes — and
// keeps round 0's fresh jobs for the checks and replays after the timed
// phase.
func (c *clientRun) keep(p planned, round int, lines [][]byte, latency time.Duration) {
	key := specKey(p.spec)
	body := joinLines(lines)
	if prev, ok := c.ref[key]; !ok {
		c.ref[key] = body
	} else if string(prev) != string(body) {
		c.problem("%s (%s) streamed different bytes than its first run", label(p.spec), p.class)
	}
	if round == 0 && p.class != "hit" {
		c.round0[key] = lines
		c.latency0[key] = latency
	}
}
