package main

import (
	"bufio"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// tinySize keeps every workload to a fraction of a second per batch.
func tinySize() runSize {
	return runSize{
		kernelWarmup: 2_000, kernelMeasure: 20_000,
		campaignWarmup: 4_000, campaignMeasure: 16_000,
		warmReplays:  2,
		sweepConfigs: 2, sweepWarmup: 40_000, sweepMeasure: 8_000,
		probeInsts: 20_000, probeMeasure: 20_000, probeEntries: 4,
	}
}

func tinyRun(t *testing.T, workload string, seed uint64, traced bool) (result, detail) {
	t.Helper()
	dir := t.TempDir()
	rc := runConfig{workload: workload, seed: seed, traced: traced, size: tinySize(),
		traceDir: filepath.Join(dir, "spans"), workDir: filepath.Join(dir, "work")}
	res, det, err := runOne(rc, io.Discard)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return res, det
}

func TestBenchmarkFileMatchesProgram(t *testing.T) {
	bf, err := loadBenchFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !slices.Equal(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, want)
	}
	var e2e []metricDef
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better})
	}
	if !slices.Equal(e2e, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, program %v", e2e, endToEnd)
	}
	var layers []metricDef
	for _, m := range bf.PerLayer {
		layers = append(layers, metricDef{m.Name, m.Unit, m.Better})
	}
	if !slices.Equal(layers, perLayer) {
		t.Errorf("BENCHMARK.json per_layer differs from the program's")
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(bf.Paths, filepath.Base(wd)) || !slices.Contains(bf.Command, filepath.Base(wd)+"/run.sh") {
		t.Errorf("BENCHMARK.json paths %v and command %v must name this directory and its run.sh", bf.Paths, bf.Command)
	}
}

func TestValidateRejects(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		edit func(m map[string]any)
	}{
		{"unknown key", func(m map[string]any) { m["extra"] = 1 }},
		{"bad workload name", func(m map[string]any) { wl(m)[0].(map[string]any)["name"] = "kernel golden" }},
		{"two-line why", func(m map[string]any) { wl(m)[0].(map[string]any)["why"] = "a\nb" }},
		{"one workload", func(m map[string]any) { m["workloads"] = wl(m)[:1] }},
		{"bound above 0.25", func(m map[string]any) { e2e(m)[0].(map[string]any)["bound"] = 0.3 }},
		{"setup_s not the largest bound", func(m map[string]any) { e2e(m)[0].(map[string]any)["bound"] = 0.25; setupOf(m)["bound"] = 0.2 }},
		{"bad unit", func(m map[string]any) { e2e(m)[0].(map[string]any)["unit"] = "m s" }},
		{"absolute path", func(m map[string]any) { m["paths"] = []any{"/tmp/x"} }},
		{"run_seconds 61", func(m map[string]any) { m["run_seconds"] = 61 }},
	} {
		var m map[string]any
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatal(err)
		}
		tc.edit(m)
		b, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "BENCHMARK.json")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := loadBenchFile(path); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func wl(m map[string]any) []any  { return m["workloads"].([]any) }
func e2e(m map[string]any) []any { return m["end_to_end"].([]any) }
func setupOf(m map[string]any) map[string]any {
	for _, x := range e2e(m) {
		if x.(map[string]any)["name"] == "setup_s" {
			return x.(map[string]any)
		}
	}
	return nil
}

// TestSmoke runs every workload untraced and traced at tiny sizes: every
// declared metric must be emitted and finite, every result correct on
// seeds 0 and 1, and the span file must cover every layer.
func TestSmoke(t *testing.T) {
	layers := []string{"synth", "fdp", "experiments", "runner", "core", "dist",
		"bpred", "indirect", "btb", "cache", "ftq", "prefetch"}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, _ := tinyRun(t, w.name, 1, false)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("untraced: correct %v, %d of %d failed", res.Correct, res.Failed, res.Attempted)
			}
			for _, m := range endToEnd {
				v, ok := res.Metrics[m.name]
				if !ok || v.Unit != m.unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Value <= 0 {
					t.Errorf("end-to-end %s = %+v", m.name, v)
				}
			}

			dir := t.TempDir()
			rc := runConfig{workload: w.name, seed: 0, traced: true, size: tinySize(),
				traceDir: filepath.Join(dir, "spans"), workDir: filepath.Join(dir, "work")}
			res, _, err := runOne(rc, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Errorf("traced: correct %v, %d of %d failed", res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(perLayer) {
				t.Errorf("traced run emitted %d metrics, want %d", len(res.Metrics), len(perLayer))
			}
			for _, m := range perLayer {
				v, ok := res.Metrics[m.name]
				if !ok || v.Unit != m.unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("per-layer %s = %+v", m.name, v)
				}
			}
			seen := spanLayers(t, filepath.Join(rc.traceDir, w.name+".spans.jsonl"))
			for _, l := range layers {
				if !seen[l] && !(l == "fdp" && w.name != "kernel_golden") && !(l == "experiments" && !strings.HasPrefix(w.name, "campaign")) {
					t.Errorf("no %s spans", l)
				}
			}
		})
	}
}

func spanLayers(t *testing.T, path string) map[string]bool {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	seen := map[string]bool{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		seen[s.Layer] = true
	}
	return seen
}

// tampered runs a workload and corrupts one result of its second batch.
type tampered struct {
	bench
	n int
}

func (t *tampered) batch(tr *tracer) (batchOut, error) {
	out, err := t.bench.batch(tr)
	if t.n++; t.n == 2 {
		r := *out.runs[0]
		r.Acct[0]++
		out.runs[0] = &r
	}
	return out, err
}

// brokenWarm replays against a scorecard reference that the fill did not
// produce, as if the cache served results of another campaign.
type brokenWarm struct{ *warmBench }

func (b brokenWarm) prepare() error {
	err := b.warmBench.prepare()
	b.fill.extra += " "
	return err
}

// register adds a workload for the length of a test.
func register(t *testing.T, def workloadDef) {
	saved := workloads
	workloads = append(slices.Clone(workloads), def)
	t.Cleanup(func() { workloads = saved })
}

func TestTamperedResultsFail(t *testing.T) {
	kernel, err := lookupWorkload("kernel_golden")
	if err != nil {
		t.Fatal(err)
	}
	register(t, workloadDef{"tampered", kernel.programs, func(p []part, env setupEnv) (bench, error) {
		b, err := newKernel(p, env)
		return &tampered{bench: b}, err
	}})
	warm, err := lookupWorkload("campaign_warm")
	if err != nil {
		t.Fatal(err)
	}
	register(t, workloadDef{"broken_warm", warm.programs, func(p []part, env setupEnv) (bench, error) {
		b, err := newWarm(p, env)
		return brokenWarm{b.(*warmBench)}, err
	}})
	for _, w := range []string{"tampered", "broken_warm"} {
		res, det := tinyRun(t, w, 0, false)
		if res.Correct || res.Failed == 0 || exitStatus(res) == 0 {
			t.Errorf("%s: correct %v, %d of %d failed, exit %d (%v)", w, res.Correct, res.Failed, res.Attempted, exitStatus(res), det.Errors)
		}
	}
}
