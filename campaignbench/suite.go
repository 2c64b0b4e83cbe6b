package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// benchFile is BENCHMARK.json.
type benchFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE = regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
)

// loadBenchFile reads and validates a benchmark file: exact keys, name and
// unit syntax, counts, bounds, and paths that stay inside the repository.
func loadBenchFile(path string) (*benchFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(raw) > 64<<10 {
		return nil, fmt.Errorf("%s: %d bytes, want at most 64 KiB", path, len(raw))
	}
	var bf benchFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if err := bf.validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

func (bf *benchFile) validate() error {
	if n := len(bf.Command); n < 1 || n > 32 {
		return fmt.Errorf("command has %d strings, want 1..32", n)
	}
	for _, c := range bf.Command {
		if len(c) > 200 || strings.HasPrefix(c, "/") || strings.Contains(c, "..") {
			return fmt.Errorf("command string %q is too long or leaves the repository", c)
		}
	}
	if n := len(bf.Paths); n < 1 || n > 16 {
		return fmt.Errorf("%d paths, want 1..16", n)
	}
	for _, p := range bf.Paths {
		if !pathRE.MatchString(p) || strings.HasPrefix(p, "/") || strings.Contains(p, "..") {
			return fmt.Errorf("bad path %q", p)
		}
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		return fmt.Errorf("run_seconds %d, want 1..60", bf.RunSeconds)
	}
	if n := len(bf.Workloads); n < 2 || n > 8 {
		return fmt.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(bf.EndToEnd); n < 1 || n > 16 {
		return fmt.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(bf.PerLayer); n < 1 || n > 128 {
		return fmt.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	name := func(kind, n string) error {
		if !nameRE.MatchString(n) {
			return fmt.Errorf("%s name %q does not match %s", kind, n, nameRE)
		}
		if seen[n] {
			return fmt.Errorf("name %q is used twice", n)
		}
		seen[n] = true
		return nil
	}
	for _, w := range bf.Workloads {
		if err := name("workload", w.Name); err != nil {
			return err
		}
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\r\n") {
			return fmt.Errorf("workload %s: why must be one line of 1..200 characters", w.Name)
		}
	}
	metric := func(n, unit, better string) error {
		if err := name("metric", n); err != nil {
			return err
		}
		if !unitRE.MatchString(unit) {
			return fmt.Errorf("metric %s: bad unit %q", n, unit)
		}
		if better != "higher" && better != "lower" {
			return fmt.Errorf("metric %s: better is %q, want higher or lower", n, better)
		}
		return nil
	}
	var setupBound, maxOther float64
	for _, m := range bf.EndToEnd {
		if err := metric(m.Name, m.Unit, m.Better); err != nil {
			return err
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			return fmt.Errorf("metric %s: bound %v, want (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			if m.Unit != "s" || m.Better != "lower" {
				return fmt.Errorf("setup_s must be in s, lower better")
			}
			setupBound = m.Bound
		} else {
			maxOther = max(maxOther, m.Bound)
		}
	}
	if setupBound == 0 || setupBound < maxOther {
		return fmt.Errorf("setup_s must be declared with the largest bound")
	}
	for _, m := range bf.PerLayer {
		if err := metric(m.Name, m.Unit, m.Better); err != nil {
			return err
		}
	}
	return nil
}

// envStamp records where and how a results document was measured.
type envStamp struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Revision   string `json:"revision"`
	Seed       uint64 `json:"seed"`
	Reps       int    `json:"reps"`
	Seconds    int    `json:"seconds"`
}

func stamp(seed uint64, reps, seconds int) envStamp {
	e := envStamp{
		GOMAXPROCS: childProcs(), NumCPU: runtime.NumCPU(), CPUModel: "unknown",
		GoVersion: runtime.Version(), Revision: "unknown",
		Seed: seed, Reps: reps, Seconds: seconds,
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				e.Revision = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					e.Revision += "+modified"
				}
			}
		}
	}
	return e
}

// childProcs is the GOMAXPROCS every run uses: at most two, the
// parallelism of the workloads.
func childProcs() int { return min(2, runtime.NumCPU()) }

// resultsDoc is what a multi-run invocation measured.
type resultsDoc struct {
	Env       envStamp                   `json:"env"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

// workloadResult is every run of one workload.
type workloadResult struct {
	Runs []runRecord `json:"runs"`
	// Metrics summarizes each end-to-end metric over the runs.
	Metrics map[string]summary `json:"metrics"`
	// Rerun is set when a spread above its bound made the workload run
	// again.
	Rerun bool `json:"rerun,omitempty"`
	// Layers are the per-layer metrics of the traced run, if any.
	Layers map[string]float64 `json:"layers,omitempty"`
}

// runRecord is one run: its seed, result digest and metrics.
type runRecord struct {
	Seed      uint64             `json:"seed"`
	Digest    string             `json:"digest"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	Errors    []string           `json:"errors,omitempty"`
}

// suiteConfig is a multi-run invocation.
type suiteConfig struct {
	bench     *benchFile
	workloads []string
	reps      int
	seed      uint64
	seconds   int
	traced    bool
	traceDir  string
	workDir   string
}

// runFunc runs one workload on one seed, traced or not.
type runFunc func(workload string, seed uint64, traced bool) (runRecord, error)

// runSuite runs every selected workload reps times, one run at a time
// with rep r on seed+r, interleaving workloads round-robin. A workload
// whose spread exceeds a metric's bound runs its reps once more before
// that metric is reported unresolved. It returns the results and every
// failure: a run that failed or was incorrect, or results that differ
// between workloads that must agree.
func runSuite(sc suiteConfig, run runFunc, log io.Writer) (*resultsDoc, []string) {
	doc := &resultsDoc{Env: stamp(sc.seed, sc.reps, sc.seconds), Workloads: map[string]*workloadResult{}}
	var failures []string
	record := func(w string, rr runRecord, err error) {
		if err != nil {
			failures = append(failures, fmt.Sprintf("%s seed %d: %v", w, rr.Seed, err))
		} else if !rr.Correct {
			failures = append(failures, fmt.Sprintf("%s seed %d: %d of %d jobs failed %v", w, rr.Seed, rr.Failed, rr.Attempted, rr.Errors))
		}
	}
	runReps := func(ws []string) {
		for r := 0; r < sc.reps; r++ {
			for _, w := range ws {
				rr, err := run(w, sc.seed+uint64(r), false)
				record(w, rr, err)
				doc.Workloads[w].Runs = append(doc.Workloads[w].Runs, rr)
			}
		}
	}
	for _, w := range sc.workloads {
		doc.Workloads[w] = &workloadResult{}
	}
	runReps(sc.workloads)

	var noisy []string
	for _, w := range sc.workloads {
		wr := doc.Workloads[w]
		wr.Metrics = summarizeRuns(sc.bench, wr.Runs)
		for _, s := range wr.Metrics {
			if s.noisy() {
				noisy = append(noisy, w)
				break
			}
		}
	}
	if len(noisy) > 0 {
		fmt.Fprintf(log, "campaignbench: spread above a bound on %s; running their reps again\n", strings.Join(noisy, ", "))
		for _, w := range noisy {
			doc.Workloads[w].Runs, doc.Workloads[w].Rerun = nil, true
		}
		runReps(noisy)
		for _, w := range noisy {
			wr := doc.Workloads[w]
			wr.Metrics = summarizeRuns(sc.bench, wr.Runs)
			for k, s := range wr.Metrics {
				if s.noisy() {
					s.Status = verdictUnresolved
					wr.Metrics[k] = s
				}
			}
		}
	}
	failures = append(failures, crossCheck(doc)...)

	if sc.traced {
		for _, w := range sc.workloads {
			rr, err := run(w, sc.seed, true)
			record(w, rr, err)
			doc.Workloads[w].Layers = rr.Metrics
		}
	}
	return doc, failures
}

// summarizeRuns summarizes each end-to-end metric over the runs.
func summarizeRuns(bf *benchFile, runs []runRecord) map[string]summary {
	out := map[string]summary{}
	for _, m := range bf.EndToEnd {
		var vs []float64
		for _, r := range runs {
			if v, ok := r.Metrics[m.Name]; ok {
				vs = append(vs, v)
			}
		}
		out[m.Name] = summarize(vs, m.Unit, m.Better, m.Bound)
	}
	return out
}

// mustAgree maps each workload to the workload whose results it must
// reproduce exactly on the same seed: a replay from the cache and a
// distributed run compute nothing a local cold run does not.
var mustAgree = map[string]string{"campaign_warm": "campaign_cold", "campaign_dist": "campaign_cold"}

// crossCheck compares the result digests of workloads that must agree,
// seed by seed.
func crossCheck(doc *resultsDoc) []string {
	var bad []string
	for w, ref := range mustAgree {
		a, b := doc.Workloads[w], doc.Workloads[ref]
		if a == nil || b == nil {
			continue
		}
		want := map[uint64]string{}
		for _, r := range b.Runs {
			want[r.Seed] = r.Digest
		}
		for _, r := range a.Runs {
			if d, ok := want[r.Seed]; ok && d != r.Digest {
				bad = append(bad, fmt.Sprintf("%s seed %d: results differ from %s", w, r.Seed, ref))
			}
		}
	}
	sort.Strings(bad)
	return bad
}

// runChild runs one workload in a fresh process of this binary and parses
// its last two output lines.
func runChild(sc suiteConfig, w string, seed uint64, traced bool, log io.Writer) (runRecord, error) {
	rr := runRecord{Seed: seed}
	exe, err := os.Executable()
	if err != nil {
		return rr, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.CommandContext(ctx, exe, "--workload", w, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.Itoa(sc.seconds), "--trace", trace,
		"--trace-dir", sc.traceDir, "--work-dir", sc.workDir)
	cmd.Stderr = log
	out, err := cmd.Output()
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if len(lines) < 2 {
		return rr, fmt.Errorf("run printed no result (%v)", err)
	}
	var (
		res result
		det detail
	)
	if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil {
		return rr, fmt.Errorf("result line: %w", jerr)
	}
	if jerr := json.Unmarshal([]byte(lines[len(lines)-2]), &det); jerr != nil {
		return rr, fmt.Errorf("detail line: %w", jerr)
	}
	rr.Digest, rr.Errors = det.Digest, det.Errors
	rr.Correct, rr.Attempted, rr.Failed = res.Correct, res.Attempted, res.Failed
	rr.Metrics = map[string]float64{}
	for k, v := range res.Metrics {
		rr.Metrics[k] = v.Value
	}
	if err != nil && res.Correct {
		return rr, err
	}
	fmt.Fprintf(log, "campaignbench: %s seed %d trace=%s done\n", w, seed, trace)
	return rr, nil
}

// printSuite prints every end-to-end metric of every workload with its
// unit, median and quartiles, and the per-layer metrics of traced runs.
func printSuite(w io.Writer, bf *benchFile, doc *resultsDoc, order []string) {
	fmt.Fprintf(w, "%-14s %-12s %-5s %12s %12s %12s %7s %6s %s\n",
		"workload", "metric", "unit", "median", "p25", "p75", "spread", "bound", "status")
	for _, name := range order {
		wr := doc.Workloads[name]
		for _, m := range bf.EndToEnd {
			s := wr.Metrics[m.Name]
			fmt.Fprintf(w, "%-14s %-12s %-5s %12.5g %12.5g %12.5g %6.1f%% %6.2f %s\n",
				name, m.Name, m.Unit, s.Median, s.P25, s.P75, 100*s.spread(), s.Bound, s.Status)
		}
	}
	for _, name := range order {
		wr := doc.Workloads[name]
		if wr.Layers == nil {
			continue
		}
		fmt.Fprintf(w, "\n%s: per-layer metrics (traced run, seed %d)\n", name, doc.Env.Seed)
		for _, m := range bf.PerLayer {
			fmt.Fprintf(w, "  %-38s %14.6g %s\n", m.Name, wr.Layers[m.Name], m.Unit)
		}
	}
}

// compareDocs compares two results documents: one row per workload and
// end-to-end metric with each side's median and quartiles, the change
// against the bound, and a verdict; then every result digest the two
// share a seed for. It returns the number of worse metrics plus changed
// digests.
func compareDocs(w io.Writer, old, new *resultsDoc) int {
	var names []string
	for name := range old.Workloads {
		if new.Workloads[name] != nil {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-14s %-12s %28s %28s %8s %6s %s\n", "workload", "metric",
		"old median [p25, p75]", "new median [p25, p75]", "worse", "bound", "verdict")
	bad := 0
	for _, name := range names {
		o, n := old.Workloads[name], new.Workloads[name]
		for _, m := range endToEnd {
			so, sn := o.Metrics[m.name], n.Metrics[m.name]
			v := verdict(so, sn)
			if v == verdictWorse {
				bad++
			}
			fmt.Fprintf(w, "%-14s %-12s %10.4g [%6.4g, %6.4g] %10.4g [%6.4g, %6.4g] %7.1f%% %6.2f %s\n",
				name, m.name, so.Median, so.P25, so.P75, sn.Median, sn.P25, sn.P75,
				100*worseBy(so.Better, so.Median, sn.Median), so.Bound, v)
		}
		digests := map[uint64]string{}
		for _, r := range o.Runs {
			digests[r.Seed] = r.Digest
		}
		for _, r := range n.Runs {
			if d, ok := digests[r.Seed]; ok && d != r.Digest {
				fmt.Fprintf(w, "%-14s seed %d: result digest changed\n", name, r.Seed)
				bad++
			}
		}
	}
	return bad
}

func loadResults(path string) (*resultsDoc, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc resultsDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(doc.Workloads) == 0 {
		return nil, fmt.Errorf("%s: no workloads", path)
	}
	return &doc, nil
}
