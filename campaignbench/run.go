package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"time"

	"fdp/internal/stats"
)

const (
	// setupReps is how many times a run sets its workload up; setup_s is
	// the median.
	setupReps = 5
	// minBatches is the fewest batches a run times, however long they take.
	minBatches = 3
)

// metricDef declares one metric: its name, unit and better direction.
// BENCHMARK.json declares the same metrics (a test keeps them in step)
// and adds each end-to-end metric's regression bound.
type metricDef struct{ name, unit, better string }

// endToEnd are the metrics a user of the simulator sees, reported by an
// untraced run. Times are host time.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower"},        // median wall time of one batch
	{"cpu_s", "s", "lower"},         // median user+system CPU time of one batch
	{"setup_s", "s", "lower"},       // median set-up time: workload generation, cache open, worker start
	{"peak_rss_mb", "MiB", "lower"}, // peak resident set size of the process
	{"jobs_per_s", "1/s", "higher"}, // median over batches of jobs (cache hits included) per second
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// exitStatus is the exit code of a run that printed res.
func exitStatus(res result) int {
	if res.Correct {
		return 0
	}
	return 1
}

// detail is printed on the line before the result: what a run computed,
// for comparing runs of the same seed and workloads that must agree.
type detail struct {
	Workload string   `json:"workload"`
	Seed     uint64   `json:"seed"`
	Batches  int      `json:"batches"`
	Digest   string   `json:"digest"`
	Errors   []string `json:"errors,omitempty"`
}

// runConfig is one invocation of a single workload.
type runConfig struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	// traceDir receives a traced run's <workload>.spans.jsonl.
	traceDir string
	// workDir holds the scratch directories runs write, such as the
	// campaigns' result caches. They are left behind: on a filesystem
	// mounted with discard, unlinking an fsync'd file costs tens of
	// milliseconds, which would double a run's length.
	workDir string
	size    runSize
}

// batchStat is one timed batch.
type batchStat struct {
	index  int
	traced bool
	out    batchOut
}

// runOne sets a workload up, times batches of it for the configured
// duration, checks every batch, and returns the result line: end-to-end
// metrics for an untraced run, per-layer metrics for a traced one.
func runOne(rc runConfig, log io.Writer) (result, detail, error) {
	res := result{Metrics: map[string]value{}}
	det := detail{Workload: rc.workload, Seed: rc.seed}
	def, err := lookupWorkload(rc.workload)
	if err != nil {
		return res, det, err
	}
	if err := os.MkdirAll(rc.workDir, 0o755); err != nil {
		return res, det, err
	}
	work, err := os.MkdirTemp(rc.workDir, rc.workload+"-*")
	if err != nil {
		return res, det, err
	}
	var tr *tracer
	if rc.traced {
		tr = newTracer()
		tr.batch = batchSetup
	}

	b, setups, err := setUp(def, rc, setupEnv{work: work, size: rc.size}, tr)
	if err != nil {
		return res, det, err
	}
	defer b.close()
	if err := b.prepare(); err != nil {
		return res, det, err
	}

	batches := timeBatches(b, rc, tr, &res, &det)
	det.Batches = len(batches)
	res.Correct = res.Failed == 0 && len(det.Errors) == 0
	var untraced []batchStat
	for _, bs := range batches {
		if !bs.traced {
			untraced = append(untraced, bs)
		}
	}
	if len(untraced) == 0 {
		return res, det, fmt.Errorf("no batch completed: %v", det.Errors)
	}

	if !rc.traced {
		var walls, cpus, rates []float64
		for _, bs := range untraced {
			walls = append(walls, bs.out.timed.wall.Seconds())
			cpus = append(cpus, bs.out.timed.cpu.Seconds())
			rates = append(rates, float64(bs.out.jobs)/bs.out.timed.wall.Seconds())
		}
		res.Metrics["wall_s"] = value{median(walls), "s"}
		res.Metrics["cpu_s"] = value{median(cpus), "s"}
		res.Metrics["setup_s"] = value{median(setups), "s"}
		res.Metrics["peak_rss_mb"] = value{peakRSSMB(), "MiB"}
		res.Metrics["jobs_per_s"] = value{median(rates), "1/s"}
		return res, det, nil
	}

	tr.batch = batchProbe
	probed, err := probeLayers(tr, rc.size, batches[len(batches)-1].out.runs, work)
	if err != nil {
		return res, det, fmt.Errorf("layer probes: %w", err)
	}
	layers := layerMetrics(tr, batches, b.parallel())
	for k, v := range probed {
		layers[k] = v
	}
	for _, m := range perLayer {
		res.Metrics[m.name] = value{layers[m.name], m.unit}
	}
	if err := writeTrace(rc, tr); err != nil {
		return res, det, err
	}
	traced := len(batches) - len(untraced)
	fmt.Fprintf(log, "%s: self time per traced batch (%d batches; spans in %s)\n", rc.workload, traced, rc.traceDir)
	printSelfTable(log, selfTable(tr.spans, func(b int) bool { return b >= 0 }), traced)
	return res, det, nil
}

// setUp sets the workload up setupReps times and keeps the last set-up.
func setUp(def workloadDef, rc runConfig, env setupEnv, tr *tracer) (bench, []float64, error) {
	var (
		b      bench
		setups []float64
	)
	for i := 0; i < setupReps; i++ {
		if b != nil {
			b.close()
			b = nil
		}
		// Each set-up starts from a collected heap returned to the OS, so
		// the peak RSS does not depend on how much garbage an earlier
		// set-up left behind.
		debug.FreeOSMemory()
		t0 := time.Now()
		id := tr.start(0, "bench", "setup")
		parts, err := def.parts(rc.seed, tr, id)
		if err == nil {
			b, err = def.setup(parts, env)
		}
		tr.end(id)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	return b, setups, nil
}

// timeBatches runs batches until the configured time has passed, checking
// each. A traced run alternates untraced and traced batches, so the
// tracing overhead is measured against the same set-up.
func timeBatches(b bench, rc runConfig, tr *tracer, res *result, det *detail) []batchStat {
	var batches []batchStat
	deadline := time.Now().Add(time.Duration(rc.seconds * float64(time.Second)))
	for i := 0; i < minBatches || time.Now().Before(deadline); i++ {
		var btr *tracer
		if tr != nil && i%2 == 1 {
			btr = tr
			tr.batch = i
		}
		out, err := b.batch(btr)
		res.Attempted += max(out.jobs, 1)
		if err != nil {
			res.Failed += max(out.jobs, 1)
			det.Errors = append(det.Errors, fmt.Sprintf("batch %d: %v", i, err))
			break
		}
		bad, digest := checkBatch(out)
		if len(batches) == 0 {
			det.Digest = digest
		} else if digest != det.Digest {
			bad = out.jobs
			det.Errors = append(det.Errors, fmt.Sprintf("batch %d: results differ from batch 0", i))
		}
		res.Failed += min(bad, out.jobs)
		batches = append(batches, batchStat{index: i, traced: btr != nil, out: out})
	}
	return batches
}

// checkBatch counts the batch's bad jobs — those the workload flagged and
// results breaking cycle-accounting conservation — and digests its
// results.
func checkBatch(out batchOut) (bad int, digest string) {
	bad = out.bad
	for _, r := range out.runs {
		if !checkRun(r) {
			bad++
		}
	}
	return bad, hashStrings(digestRuns(out.labels, out.runs), out.extra)
}

// checkRun reports whether a run obeys cycle-accounting conservation: the
// accounting buckets sum exactly to the measured cycles.
func checkRun(r *stats.Run) bool {
	return r != nil && r.Cycles > 0 && r.AcctTotal() == r.Cycles
}

// digestRuns hashes every run's label and counters in the given order.
func digestRuns(labels []string, runs []*stats.Run) string {
	h := sha256.New()
	for i, r := range runs {
		if r == nil {
			fmt.Fprintf(h, "%s|nil\n", labels[i])
			continue
		}
		fmt.Fprintf(h, "%s|%s|%s\n", labels[i], r.Config, r.Workload)
		c := r.Counters()
		names := make([]string, 0, len(c))
		for n := range c {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(h, "%s=%d\n", n, c[n])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func hashStrings(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%d:%s", len(p), p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// writeTrace writes a traced run's spans to <traceDir>/<workload>.spans.jsonl.
func writeTrace(rc runConfig, tr *tracer) error {
	if err := os.MkdirAll(rc.traceDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(rc.traceDir, rc.workload+".spans.jsonl"))
	if err != nil {
		return err
	}
	if err := writeSpans(f, tr.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printResult writes the detail line and then the result line.
func printResult(w io.Writer, res result, det detail) error {
	enc := json.NewEncoder(w)
	if err := enc.Encode(det); err != nil {
		return err
	}
	return enc.Encode(res)
}
