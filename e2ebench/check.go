package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"

	"popkit/internal/expt"
)

// countedProtocols run on the species-count kernels and report the
// interactions they simulated.
var countedProtocols = map[string]bool{
	"approxmajority": true, "exactmajority": true, "coalescence": true,
	"gsexactmajority": true, "aagmajority": true, "gs18leader": true,
}

// checkRecords checks one job's records against properties the protocols
// must have, not against stored output: replicas [Start, Replicas) arrive
// once each, in order, with their derived (hence pairwise-distinct) seeds,
// and each replica's outcome is one the protocol guarantees.
func checkRecords(spec expt.JobSpec, recs []expt.ReplicaRecord) error {
	if want := spec.Replicas - spec.Start; len(recs) != want {
		return fmt.Errorf("%s: %d records, want %d", label(spec), len(recs), want)
	}
	seen := make(map[uint64]bool, len(recs))
	for i, r := range recs {
		idx := spec.Start + i
		switch {
		case r.Replica != idx:
			return fmt.Errorf("%s: record %d is replica %d", label(spec), i, r.Replica)
		case r.Err != "":
			return fmt.Errorf("%s: replica %d failed (%s): %s", label(spec), idx, r.ErrKind, r.Err)
		case r.Protocol != spec.Protocol || r.N != spec.N:
			return fmt.Errorf("%s: replica %d reports %s n=%d", label(spec), idx, r.Protocol, r.N)
		case r.Seed != expt.ReplicaSeed(spec.Seed, idx) || seen[r.Seed]:
			return fmt.Errorf("%s: replica %d has seed %d (want %d, distinct)", label(spec), idx, r.Seed, expt.ReplicaSeed(spec.Seed, idx))
		}
		seen[r.Seed] = true
		if err := checkOutcome(spec, r); err != nil {
			return fmt.Errorf("%s replica %d: %w", label(spec), idx, err)
		}
	}
	return nil
}

func checkOutcome(spec expt.JobSpec, r expt.ReplicaRecord) error {
	if !r.Converged {
		return fmt.Errorf("did not converge (counts %v)", r.Counts)
	}
	n := int64(spec.N)
	c := r.Counts
	if countedProtocols[spec.Protocol] {
		if got := r.Rounds * float64(spec.N); math.Abs(got-float64(r.Interactions)) > 1e-9*got+0.5 {
			return fmt.Errorf("rounds × n = %.1f but %d interactions", got, r.Interactions)
		}
	}
	// The generator's answer: the registry gives camp A the larger share.
	countedA, countedB := splitGap(spec.N, spec.Gap)
	frameB := int64(spec.N-spec.Gap) / 2
	frameA := frameB + int64(spec.Gap)
	switch spec.Protocol {
	case "leader", "leaderexact", "coalescence", "gs18leader":
		if c["L"] != 1 {
			return fmt.Errorf("%d leaders, want exactly 1", c["L"])
		}
	case "exactmajority":
		if countedA > countedB && c["A"] != n {
			return fmt.Errorf("A=%d, want all %d agents on the majority A", c["A"], n)
		}
		if c["A"] != 0 && c["A"] != n {
			return fmt.Errorf("A=%d, no consensus", c["A"])
		}
	case "gsexactmajority", "aagmajority":
		if countedA > countedB && (c["Out"] != n || c["TokB"] != 0) {
			return fmt.Errorf("Out=%d TokB=%d, want the majority A (Out=%d, TokB=0)", c["Out"], c["TokB"], n)
		}
	case "majorityexact":
		if frameA > frameB && c["YA"] != n {
			return fmt.Errorf("YA=%d, want all %d agents on the majority A", c["YA"], n)
		}
	case "approxmajority":
		if c["A"] != 0 && c["B"] != 0 {
			return fmt.Errorf("A=%d B=%d, no consensus", c["A"], c["B"])
		}
		if decisiveGap(spec) && c["B"] != 0 {
			return fmt.Errorf("B won at gap %d ≥ √(n ln n)", spec.Gap)
		}
	case "majority":
		if c["YA"] != 0 && c["YA"] != n {
			return fmt.Errorf("YA=%d, no consensus", c["YA"])
		}
		if decisiveGap(spec) && frameA > frameB && c["YA"] != n {
			return fmt.Errorf("B won at gap %d ≥ √(n ln n)", spec.Gap)
		}
	case "plurality":
		// setupFrameworkInputs gives colour 1 the largest initial share.
		if c["W1"] != n {
			return fmt.Errorf("W1=%d, want colour 1 (the initial plurality) at all %d agents", c["W1"], n)
		}
	default:
		return fmt.Errorf("no output check for protocol %q", spec.Protocol)
	}
	return nil
}

// splitGap mirrors the registry's A/B split for the counted protocols.
func splitGap(n, gap int) (nA, nB int64) {
	b := int64(n-gap) / 2
	return int64(n) - b, b
}

// decisiveGap reports whether the gap is large enough (≥ √(n ln n)) for an
// approximate majority to be required to pick the initial majority.
func decisiveGap(spec expt.JobSpec) bool {
	n := float64(spec.N)
	return float64(spec.Gap) >= math.Sqrt(n*math.Log(n))
}

func label(spec expt.JobSpec) string {
	return fmt.Sprintf("%s n=%d gap=%d seed=%d replicas=%d", spec.Protocol, spec.N, spec.Gap, spec.Seed, spec.Replicas)
}

// parseRecords decodes NDJSON record lines.
func parseRecords(lines [][]byte) ([]expt.ReplicaRecord, error) {
	recs := make([]expt.ReplicaRecord, 0, len(lines))
	for _, l := range lines {
		var r expt.ReplicaRecord
		if err := json.Unmarshal(l, &r); err != nil {
			return nil, fmt.Errorf("bad record line %q: %w", bytes.TrimSpace(l), err)
		}
		recs = append(recs, r)
	}
	return recs, nil
}

// checkManifest compares a sweep's manifest with the generator's
// prediction and returns the record count it reports.
func checkManifest(p *sweepPlan, results []expt.SweepResult, sum expt.SweepSummary) (int, error) {
	if len(results) != len(p.points) {
		return 0, fmt.Errorf("%d manifest lines, want %d", len(results), len(p.points))
	}
	records, hits := 0, 0
	for i, r := range results {
		want := p.points[i]
		if r.Point != i || r.Err != "" || r.Cache != p.cache[i] || r.Records != want.Replicas || r.Hash != expt.SpecHash(want) {
			return 0, fmt.Errorf("point %d: %+v, want cache %q and %d records", i, r, p.cache[i], want.Replicas)
		}
		records += r.Records
		if r.Cache == "hit" {
			hits++
		}
	}
	if sum.Points != len(p.points) || sum.Hits != hits || sum.Misses != len(p.points)-hits || sum.Errors != 0 {
		return 0, fmt.Errorf("summary %+v", sum)
	}
	return records, nil
}

func joinLines(lines [][]byte) []byte {
	var out []byte
	for _, l := range lines {
		out = append(out, l...)
	}
	return out
}

func hitOrMiss(hit bool) string {
	if hit {
		return "hit"
	}
	return "miss"
}
