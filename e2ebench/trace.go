package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans are kept
// in memory and written when the run ends, so recording costs a slice
// append under a mutex.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Op     int    `json:"op,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans when on; when off every method is a no-op, which is
// what the untraced run measures.
type tracer struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// add records a finished span and returns its id (0 when tracing is off).
func (t *tracer) add(name string, start, end time.Time, parent, op int) int {
	if !t.on {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return id
}

// reserve records a span whose interval is not known yet, so that its
// children can name it as their parent; finish fills the interval in.
func (t *tracer) reserve(name string, parent, op int) int {
	if !t.on {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name})
	return id
}

// finish sets the interval of a reserved span.
func (t *tracer) finish(id int, start, end time.Time) {
	if !t.on || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].Start = start.Sub(t.t0).Nanoseconds()
	t.spans[id-1].End = end.Sub(t.t0).Nanoseconds()
}

// write saves the spans as NDJSON under dir.
func (t *tracer) write(dir, workload string, seed uint64) (string, error) {
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.ndjson", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		enc.Encode(s)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// selfTimeTable sums, per span name, the total time and the self time: a
// span's duration minus the part of it its children cover.
func (t *tracer) selfTimeTable() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	type agg struct {
		count       int
		total, self int64
	}
	byName := map[string]*agg{}
	var all int64
	for _, s := range t.spans {
		a := byName[s.Name]
		if a == nil {
			a = &agg{}
			byName[s.Name] = a
		}
		d := s.End - s.Start
		self := d - covered(s, children[s.ID])
		a.count++
		a.total += d
		a.self += self
		all += self
	}
	out := []string{fmt.Sprintf("per-layer self time (%d spans):", len(t.spans)),
		fmt.Sprintf("  %-24s %8s %12s %12s %7s", "span", "count", "total_ms", "self_ms", "self%")}
	names := sortedKeys(byName)
	sort.SliceStable(names, func(i, j int) bool { return byName[names[i]].self > byName[names[j]].self })
	for _, n := range names {
		a := byName[n]
		pct := 0.0
		if all > 0 {
			pct = 100 * float64(a.self) / float64(all)
		}
		out = append(out, fmt.Sprintf("  %-24s %8d %12.2f %12.2f %6.1f%%",
			n, a.count, float64(a.total)/1e6, float64(a.self)/1e6, pct))
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(p span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, p.Start), min(k.End, p.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			sum += curHi - curLo
			curLo, curHi = v[0], v[1]
		} else if v[1] > curHi {
			curHi = v[1]
		}
	}
	return sum + curHi - curLo
}

// offTracer is the tracer for untimed work that has no place in the spans.
var offTracer = newTracer(false)
