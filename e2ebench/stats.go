package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// median returns the middle value (mean of the two middle values for an
// even count), as Python's statistics.median does.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile interpolates linearly between closest ranks.
func percentile(xs []float64, q float64) float64 {
	s := sortedCopy(xs)
	if len(s) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// quartiles ports Python's statistics.quantiles(data, n=4) with its default
// exclusive method, so the repeat mode reports the spread the same way the
// bounds are checked.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0]
		}
		return math.NaN(), math.NaN()
	}
	m := ld + 1
	var out [3]float64
	for i := 1; i < 4; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		out[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return out[0], out[2]
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// peakRSSMB is the process's peak resident set size (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024
}

// hostInfo records what the numbers were measured on.
func hostInfo() map[string]any {
	cpu := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	return map[string]any{
		"cpu":        cpu,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
	}
}

// op is one timed operation of a workload: one job, one POST or one sweep.
type op struct {
	class   string // light, heavy, batch, hit, sweep or tie
	round   int
	latency time.Duration
	first   time.Duration // time to the first replica record; 0 if none
	records int
	failed  bool
}

// round is one round of a workload's timed phase.
type round struct {
	took     time.Duration
	retained float64 // MB
}

// endRound closes a round that started at start. Every client is idle at a
// round's end, so the live heap after a collection there is what the
// program retains — store index, caches, server state — without the
// buffers of requests in flight, whose share of a peak depends on when the
// collector happened to run.
func endRound(rounds []round, start time.Time) []round {
	r := round{took: time.Since(start)}
	runtime.GC()
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(sample)
	if sample[0].Value.Kind() == metrics.KindUint64 {
		r.retained = float64(sample[0].Value.Uint64()) / (1 << 20)
	}
	return append(rounds, r)
}

// endToEnd turns the timed phase's operations into the end-to-end metrics.
// Throughputs and the retained heap are medians over rounds, so one round
// slowed by a neighbour on the host does not move them. Missing sample sets
// leave their metric out, which runOnce reports.
func endToEnd(ops []op, rounds []round, setups []time.Duration) map[string]float64 {
	var light, heavy, hit, first []float64
	completed := make([]float64, len(rounds))
	records := make([]float64, len(rounds))
	for _, o := range ops {
		if o.failed {
			continue
		}
		completed[o.round]++
		records[o.round] += float64(o.records)
		switch o.class {
		case "light":
			light = append(light, ms(o.latency))
		case "heavy":
			heavy = append(heavy, ms(o.latency))
		case "hit":
			hit = append(hit, ms(o.latency))
		}
		if (o.class == "light" || o.class == "heavy") && o.first > 0 {
			first = append(first, ms(o.first))
		}
	}
	var setup []float64
	for _, d := range setups {
		setup = append(setup, d.Seconds())
	}
	var retained []float64
	for r, rd := range rounds {
		completed[r] /= rd.took.Seconds()
		records[r] /= rd.took.Seconds()
		retained = append(retained, rd.retained)
	}
	m := map[string]float64{
		"ops_per_s":        median(completed),
		"replicas_per_s":   median(records),
		"retained_heap_mb": median(retained),
		"peak_rss_mb":      peakRSSMB(),
	}
	put := func(name string, xs []float64, min int, f func([]float64) float64) {
		if len(xs) >= min {
			m[name] = f(xs)
		}
	}
	p90 := func(xs []float64) float64 { return percentile(xs, 0.9) }
	put("setup_s", setup, 1, median)
	put("first_record_p50_ms", first, 1, median)
	put("light_p50_ms", light, 1, median)
	// A p90 needs ten samples beyond it to be a tail.
	put("light_p90_ms", light, 100, p90)
	put("heavy_p50_ms", heavy, 1, median)
	put("hit_p50_ms", hit, 1, median)
	return m
}

// repeatMode runs the workload k times as child processes with seeds
// seed … seed+k−1 and summarises them: for an untraced run the median and
// quartiles of every end-to-end metric next to its bound, for a traced run
// whether every count repeats exactly. It also checks that the share of
// failed operations is the same in every run.
func repeatMode(spec *benchSpec, workload string, seed uint64, seconds, trace, k int, root string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	type run struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}
	var runs []run
	bad := false
	for i := 0; i < k; i++ {
		s := seed + uint64(i)
		cmd := exec.Command(self, "-root", root, "-workload", workload, "-seed", strconv.FormatUint(s, 10),
			"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			fmt.Printf("run %d (seed %d) failed: %v\n", i+1, s, err)
			return 1
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var r run
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
			fmt.Printf("run %d (seed %d): bad result line: %v\n", i+1, s, err)
			return 1
		}
		if !r.Correct {
			bad = true
			for _, l := range lines {
				if strings.HasPrefix(l, "# CHECK FAILED") {
					fmt.Println(l)
				}
			}
		}
		fmt.Printf("run %2d seed %-4d correct=%-5v attempted=%-5d failed=%-3d %s\n",
			i+1, s, r.Correct, r.Attempted, r.Failed, compact(r.Metrics))
		runs = append(runs, r)
	}
	share := func(r run) [2]int { // failed:attempted reduced to lowest terms
		g := gcd(r.Failed, r.Attempted)
		return [2]int{r.Failed / g, r.Attempted / g}
	}
	for _, r := range runs[1:] {
		if share(r) != share(runs[0]) {
			fmt.Printf("FAIL: failed share differs between runs (%d/%d vs %d/%d)\n",
				r.Failed, r.Attempted, runs[0].Failed, runs[0].Attempted)
			bad = true
		}
	}
	if trace == 0 {
		fmt.Printf("\n%-22s %6s %12s %12s %12s %8s %6s\n", "metric", "unit", "median", "q1", "q3", "spread", "bound")
		for _, m := range spec.EndToEnd {
			var xs []float64
			for _, r := range runs {
				xs = append(xs, r.Metrics[m.Name].Value)
			}
			med := median(xs)
			q1, q3 := quartiles(xs)
			spread := (q3 - q1) / med
			verdict := ""
			switch {
			case m.Name == "setup_s":
				verdict = "(spread not gated)"
			case spread > m.Bound:
				verdict = "FAIL: spread above bound"
				bad = true
			case spread > m.Bound/3:
				verdict = "unsteady: spread above a third of the bound"
			}
			fmt.Printf("%-22s %6s %12.4f %12.4f %12.4f %7.1f%% %5.0f%% %s\n",
				m.Name, m.Unit, med, q1, q3, 100*spread, 100*m.Bound, verdict)
		}
	} else {
		for _, m := range spec.PerLayer {
			if !countUnit(m.Unit) || schedulingDependent[m.Name] {
				continue
			}
			for _, r := range runs[1:] {
				if r.Metrics[m.Name].Value != runs[0].Metrics[m.Name].Value {
					fmt.Printf("FAIL: count %s differs between runs (%v vs %v)\n",
						m.Name, r.Metrics[m.Name].Value, runs[0].Metrics[m.Name].Value)
					bad = true
					break
				}
			}
		}
	}
	if bad {
		return 1
	}
	fmt.Println("\nrepeat: ok")
	return 0
}

// schedulingDependent names counts that depend on goroutine timing by
// design — the fleet steals work only when a worker runs dry before its
// neighbour — so the repeat mode shows them but does not require them to
// repeat.
var schedulingDependent = map[string]bool{"fleet.steals": true}

func countUnit(unit string) bool { return unit == "count" || unit == "bytes" }

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	if a == 0 {
		return 1
	}
	return a
}

func compact(ms map[string]metricOut) string {
	var b bytes.Buffer
	for _, k := range sortedKeys(ms) {
		fmt.Fprintf(&b, "%s=%.4g ", k, ms[k].Value)
	}
	return b.String()
}
