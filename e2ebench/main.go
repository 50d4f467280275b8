// Command e2ebench is popkit's end-to-end benchmark. It drives one of three
// seeded workloads from a single process through the public entry points —
// the registry (the popsim -ndjson path), popserved's HTTP front end and
// popcoord over two in-process workers — checks every operation's output
// against properties the protocols must have, and prints one JSON result
// line. A traced run (-trace 1) measures the per-layer metrics instead.
//
// Run it from the root of a checkout through run.sh, which builds it:
//
//	bash e2ebench/run.sh --workload service-mix --seed 1 --seconds 30 --trace 0
//	bash e2ebench/run.sh --workload kernel-tiers --seed 1 --seconds 30 --repeat 10
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// gcPercent is the GOGC the benchmark runs its servers and clients under.
const gcPercent = 400

// workloads maps a workload name to the function that runs it.
var workloads = map[string]func(*env) (*result, error){
	"kernel-tiers":   runKernelTiers,
	"service-mix":    runServiceMix,
	"cluster-shards": runClusterShards,
}

// result is what one run measured and checked.
type result struct {
	attempted int
	failed    int
	// problems lists every failed output check; a run with any is not
	// correct.
	problems []string
	// metrics holds the end-to-end metrics (untraced run) or the
	// per-layer metrics (traced run), keyed by BENCHMARK.json name.
	metrics map[string]float64
	// extra holds per-layer figures this workload exercises but that are
	// not measurable on every workload, so BENCHMARK.json cannot list them;
	// a traced run prints them in its table.
	extra map[string]float64
	// notes are printed before the result line (tables, overhead).
	notes []string
}

func (r *result) problem(format string, args ...any) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func main() {
	var (
		workload = flag.String("workload", "", "kernel-tiers, service-mix or cluster-shards")
		seed     = flag.Uint64("seed", 1, "workload seed; it orders each round's operations")
		seconds  = flag.Int("seconds", 30, "length of the timed phase in seconds")
		trace    = flag.Int("trace", 0, "1 runs the traced variant, which reports the per-layer metrics")
		repeat   = flag.Int("repeat", 0, "run the workload this many times with seeds seed, seed+1, … and summarise the spread")
		root     = flag.String("root", ".", "checkout root holding BENCHMARK.json")
	)
	flag.Parse()
	// The servers run in this process. At the default GOGC their few-MB
	// heaps are collected many times a second, and where the live heap
	// settles changes the collection rate enough to move throughput by a
	// quarter between otherwise identical runs; a fixed, larger GC target
	// keeps that out of the numbers.
	debug.SetGCPercent(gcPercent)
	spec, err := loadSpec(filepath.Join(*root, "BENCHMARK.json"))
	if err != nil {
		fatal(err)
	}
	if _, ok := workloads[*workload]; !ok {
		fatal(fmt.Errorf("unknown workload %q (want one of %s)", *workload, strings.Join(workloadNames(), ", ")))
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatal(fmt.Errorf("need --seconds ≥ 1 and --trace 0 or 1"))
	}
	outDir := filepath.Join(*root, ".bench_build", "e2ebench")
	if *repeat > 0 {
		os.Exit(repeatMode(spec, *workload, *seed, *seconds, *trace, *repeat, *root))
	}
	if err := runOnce(spec, *workload, *seed, *seconds, *trace == 1, outDir); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "e2ebench:", err)
	os.Exit(1)
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// runOnce runs one workload and prints its result as the last stdout line.
func runOnce(spec *benchSpec, workload string, seed uint64, seconds int, traced bool, outDir string) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(outDir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	e := &env{
		workload: workload,
		seed:     seed,
		seconds:  time.Duration(seconds) * time.Second,
		traced:   traced,
		dir:      dir,
		tr:       newTracer(traced),
	}
	inputs := map[string]any{
		"workload": workload, "seed": seed, "seconds": seconds, "trace": traced,
		"gogc": gcPercent, "host": hostInfo(),
	}
	line, _ := json.Marshal(map[string]any{"inputs": inputs})
	fmt.Println(string(line))

	res, err := workloads[workload](e)
	if err != nil {
		return err
	}
	want := spec.EndToEnd
	if traced {
		want = spec.PerLayer
	}
	out := map[string]metricOut{}
	listed := map[string]bool{}
	for _, m := range want {
		listed[m.Name] = true
		v, ok := res.metrics[m.Name]
		if !ok {
			return fmt.Errorf("workload %s did not measure %s", workload, m.Name)
		}
		out[m.Name] = metricOut{Value: v, Unit: m.Unit}
	}
	lastPath := filepath.Join(outDir, "last-"+workload+".json")
	if traced {
		if tracePath, err := e.tr.write(outDir, workload, seed); err == nil {
			res.notes = append(res.notes, "spans written to "+tracePath)
		} else {
			res.notes = append(res.notes, "spans not written: "+err.Error())
		}
		res.notes = append(res.notes, e.tr.selfTimeTable()...)
		res.notes = append(res.notes, overheadNote(lastPath, e.e2e)...)
		res.notes = append(res.notes, extraTable(res.extra)...)
	} else {
		if b, err := json.Marshal(e.e2e); err == nil {
			os.WriteFile(lastPath, b, 0o644)
		}
		for _, name := range sortedKeys(e.e2e) {
			if !listed[name] {
				res.notes = append(res.notes, fmt.Sprintf("also measured: %s %.4f", name, e.e2e[name]))
			}
		}
	}
	for _, n := range res.notes {
		fmt.Println("# " + n)
	}
	fmt.Printf("# ops attempted %d, failed %d\n", res.attempted, res.failed)
	for _, p := range res.problems {
		fmt.Println("# CHECK FAILED: " + p)
		fmt.Fprintln(os.Stderr, "e2ebench: check failed:", p)
	}
	final, err := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{len(res.problems) == 0, res.attempted, res.failed, out})
	if err != nil {
		return err
	}
	fmt.Println(string(final))
	return nil
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// benchSpec is the part of BENCHMARK.json the benchmark reads: the metric
// lists it must print and the bounds the repeat mode reports against.
type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// overheadNote compares the traced run's end-to-end figures with the last
// untraced run of the same workload in this checkout.
func overheadNote(lastPath string, traced map[string]float64) []string {
	b, err := os.ReadFile(lastPath)
	var plain map[string]float64
	if err == nil {
		err = json.Unmarshal(b, &plain)
	}
	if err != nil {
		return []string{"trace overhead: no untraced run of this workload to compare with"}
	}
	out := []string{"trace overhead (traced vs last untraced run):"}
	for _, name := range sortedKeys(traced) {
		if p, ok := plain[name]; ok && p != 0 {
			out = append(out, fmt.Sprintf("  %-22s traced %12.4f  untraced %12.4f  change %+6.1f%%",
				name, traced[name], p, 100*(traced[name]-p)/p))
		}
	}
	return out
}

func extraTable(extra map[string]float64) []string {
	if len(extra) == 0 {
		return nil
	}
	out := []string{"workload-specific per-layer figures:"}
	for _, k := range sortedKeys(extra) {
		out = append(out, fmt.Sprintf("  %-34s %14.4f", k, extra[k]))
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
