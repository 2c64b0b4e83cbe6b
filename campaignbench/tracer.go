package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"syscall"
	"time"

	"fdp/internal/obs"
)

// meter accumulates the wall and CPU time of the calls it measures.
type meter struct{ wall, cpu time.Duration }

func (m *meter) measure(f func()) {
	c0 := cpuTime()
	t0 := time.Now()
	f()
	m.wall += time.Since(t0)
	m.cpu += cpuTime() - c0
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// span is one timed call into a layer of the program. Spans the benchmark
// records around its own calls and the runner's lifecycle spans share
// this form; Parent links a span to the call that caused it.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Batch  int    `json:"batch"`
	Job    int    `json:"job,omitempty"` // runner job index within its runner.Execute call
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_us"`
	Dur    int64  `json:"dur_us"`
	Detail string `json:"detail,omitempty"`
}

func (s span) end() int64 { return s.Start + s.Dur }

// tracer keeps the spans of one traced run in memory; they are written
// out when the run ends. A nil tracer records nothing, so untraced code
// paths call it unconditionally. It is used from one goroutine.
type tracer struct {
	epoch time.Time
	// batch tags new spans with the batch they belong to, or batchSetup
	// or batchProbe.
	batch int
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return time.Since(t.epoch).Microseconds() }

// start opens a span and returns its id (0 on a nil tracer).
func (t *tracer) start(parent int, layer, name string) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Batch: t.batch,
		Layer: layer, Name: name, Start: t.now()})
	return len(t.spans)
}

// end closes the span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	sp := &t.spans[id-1]
	sp.Dur = t.now() - sp.Start
}

// runnerLayer maps a runner lifecycle span to the layer whose work it
// times: the simulation phases are the core's, leases are dist's, and the
// rest (queueing, checkpoint waits, cache writes and events) the runner's.
func runnerLayer(k obs.SpanKind) string {
	switch k {
	case obs.SpanSimulate, obs.SpanFFwd, obs.SpanRestore:
		return "core"
	case obs.SpanLease, obs.SpanReassign, obs.SpanWorkerLost:
		return "dist"
	}
	return "runner"
}

// importRunner adds the runner's span timeline, recorded through
// Options.Spans, as children of parent.
func (t *tracer) importRunner(parent int, sl *obs.SpanLog) {
	if t == nil || sl == nil {
		return
	}
	off := sl.Epoch().Sub(t.epoch).Microseconds()
	for _, rs := range sl.All() {
		t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Batch: t.batch, Job: rs.Job,
			Layer: runnerLayer(rs.Kind), Name: rs.Kind.String(),
			Start: off + rs.Start, Dur: rs.Dur, Detail: rs.Detail})
	}
}

// waiting reports whether a span only waits for other work. Waiting
// children do not count against their parent's self time.
func (s span) waiting() bool {
	return s.Layer == "runner" && (s.Name == obs.SpanQueued.String() || s.Name == obs.SpanCkptWait.String())
}

// selfTimes returns each span's self time: its duration minus the part of
// it that its non-waiting children cover (concurrent children are counted
// once). A waiting span has none.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 && !s.waiting() && s.Dur > 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		if !s.waiting() {
			self[i] = s.Dur - covered(s, children[s.ID])
		}
	}
	return self
}

// covered is the length of the union of the children's intervals,
// clipped to the parent.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.end(), parent.end())
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	return total + curHi - curLo
}

// writeSpans writes the spans as JSONL.
func writeSpans(w io.Writer, spans []span) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// layerRow is one line of the self-time table.
type layerRow struct {
	layer, name string
	count       int
	total, self int64 // µs
}

// selfTable totals duration and self time per (layer, name) over the
// spans of the batches keep accepts.
func selfTable(spans []span, keep func(batch int) bool) []layerRow {
	self := selfTimes(spans)
	idx := map[string]int{}
	var rows []layerRow
	for i, s := range spans {
		if !keep(s.Batch) {
			continue
		}
		k := s.Layer + "\x00" + s.Name
		j, ok := idx[k]
		if !ok {
			j = len(rows)
			idx[k] = j
			rows = append(rows, layerRow{layer: s.Layer, name: s.Name})
		}
		rows[j].count++
		rows[j].total += s.Dur
		rows[j].self += self[i]
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].self > rows[j].self })
	return rows
}

func printSelfTable(w io.Writer, rows []layerRow, batches int) {
	fmt.Fprintf(w, "%-12s %-26s %8s %12s %12s\n", "layer", "call", "count", "total_s/b", "self_s/b")
	n := float64(max(batches, 1))
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %-26s %8d %12.4f %12.4f\n", r.layer, r.name, r.count,
			float64(r.total)/1e6/n, float64(r.self)/1e6/n)
	}
}
