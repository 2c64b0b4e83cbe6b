package main

import (
	"bytes"
	"io"
	"math"
	"strings"
	"testing"
)

// The expected quartiles are Python's statistics.quantiles(xs, n=4), the
// rule the benchmark's spread is judged by.
func TestQuartiles(t *testing.T) {
	for _, tc := range []struct {
		name        string
		xs          []float64
		q1, med, q3 float64
	}{
		{"one sample", []float64{5}, 5, 5, 5},
		{"two samples", []float64{1, 2}, 0.75, 1.5, 2.25},
		{"three samples", []float64{2, 1, 3}, 1, 2, 3},
		{"ties", []float64{1, 2, 2, 2, 3}, 1.5, 2, 2.5},
		{"all equal", []float64{4, 4, 4, 4}, 4, 4, 4},
		{"ten samples", []float64{3.1, 1.2, 5.5, 2.2, 9.9, 4.4, 6.6, 7.7, 8.8, 0.5}, 1.95, 4.95, 7.975},
	} {
		q1, q3 := quartiles(tc.xs)
		med := median(tc.xs)
		if !near(q1, tc.q1) || !near(med, tc.med) || !near(q3, tc.q3) {
			t.Errorf("%s: quartiles %v, %v, %v; want %v, %v, %v", tc.name, q1, med, q3, tc.q1, tc.med, tc.q3)
		}
	}
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for p, want := range map[float64]float64{0: 1, 50: 2.5, 100: 4} {
		if got := percentile(xs, p); !near(got, want) {
			t.Errorf("percentile(%v) = %v, want %v", p, got, want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v", got)
	}
}

func sum(better string, bound float64, xs ...float64) summary {
	return summarize(xs, "s", better, bound)
}

func TestVerdict(t *testing.T) {
	for _, tc := range []struct {
		name     string
		old, new summary
		want     string
	}{
		{"within bound", sum("lower", 0.1, 10, 10.1, 9.9), sum("lower", 0.1, 10.5, 10.4, 10.6), verdictUnchanged},
		{"slower", sum("lower", 0.1, 10, 10.1, 9.9), sum("lower", 0.1, 12, 12.1, 11.9), verdictWorse},
		{"faster", sum("lower", 0.1, 10, 10.1, 9.9), sum("lower", 0.1, 8, 8.1, 7.9), verdictBetter},
		{"fewer jobs per second", sum("higher", 0.1, 100, 101, 99), sum("higher", 0.1, 80, 81, 79), verdictWorse},
		{"noisy old side", sum("lower", 0.1, 5, 10, 15), sum("lower", 0.1, 10, 10, 10), verdictUnresolved},
		{"noisy new side", sum("lower", 0.1, 10, 10, 10), sum("lower", 0.1, 2, 10, 12), verdictUnresolved},
		{"noisy but every new run better", sum("lower", 0.1, 10, 14, 18), sum("lower", 0.1, 5, 7, 9), verdictBetter},
	} {
		if got := verdict(tc.old, tc.new); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCompareDocs(t *testing.T) {
	doc := func(wall float64, digest string) *resultsDoc {
		wr := &workloadResult{Metrics: map[string]summary{}, Runs: []runRecord{{Seed: 3, Digest: digest}}}
		for _, m := range endToEnd {
			wr.Metrics[m.name] = sum(m.better, 0.1, 1, 1, 1)
		}
		wr.Metrics["wall_s"] = sum("lower", 0.1, wall, wall, wall)
		return &resultsDoc{Workloads: map[string]*workloadResult{"kernel_golden": wr}}
	}
	var out bytes.Buffer
	if n := compareDocs(&out, doc(10, "a"), doc(10.2, "a")); n != 0 {
		t.Errorf("unchanged documents: %d bad\n%s", n, out.String())
	}
	out.Reset()
	if n := compareDocs(&out, doc(10, "a"), doc(13, "a")); n != 1 || !strings.Contains(out.String(), verdictWorse) {
		t.Errorf("slower document: %d bad\n%s", n, out.String())
	}
	out.Reset()
	if n := compareDocs(&out, doc(10, "a"), doc(10, "b")); n != 1 || !strings.Contains(out.String(), "digest changed") {
		t.Errorf("changed results: %d bad\n%s", n, out.String())
	}
}

// fakeRuns returns a runFunc whose wall_s values come from walls, one per
// call, cycling.
func fakeRuns(walls ...float64) runFunc {
	i := 0
	return func(w string, seed uint64, traced bool) (runRecord, error) {
		v := walls[i%len(walls)]
		i++
		m := map[string]float64{}
		for _, d := range endToEnd {
			m[d.name] = 1
		}
		m["wall_s"] = v
		return runRecord{Seed: seed, Digest: "d", Correct: true, Attempted: 1, Metrics: m}, nil
	}
}

func TestRunSuiteNoiseRule(t *testing.T) {
	bf, err := loadBenchFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	sc := suiteConfig{bench: bf, workloads: []string{"kernel_golden"}, reps: 4}

	// A steady workload runs its reps once.
	doc, failures := runSuite(sc, fakeRuns(10, 10.1, 9.9, 10), io.Discard)
	wr := doc.Workloads["kernel_golden"]
	if len(failures) > 0 || wr.Rerun || len(wr.Runs) != 4 || wr.Metrics["wall_s"].Status != "ok" {
		t.Errorf("steady workload: failures %v, rerun %v, %d runs, status %s", failures, wr.Rerun, len(wr.Runs), wr.Metrics["wall_s"].Status)
	}

	// A noisy first round is run again; a steady second round resolves it.
	doc, _ = runSuite(sc, fakeRuns(5, 10, 20, 40, 10, 10, 10, 10), io.Discard)
	wr = doc.Workloads["kernel_golden"]
	if !wr.Rerun || len(wr.Runs) != 4 || wr.Metrics["wall_s"].Status != "ok" {
		t.Errorf("noisy then steady: rerun %v, %d runs, status %s", wr.Rerun, len(wr.Runs), wr.Metrics["wall_s"].Status)
	}

	// Noisy twice is unresolved.
	doc, _ = runSuite(sc, fakeRuns(5, 10, 20, 40), io.Discard)
	if got := doc.Workloads["kernel_golden"].Metrics["wall_s"].Status; got != verdictUnresolved {
		t.Errorf("noisy twice: status %s, want %s", got, verdictUnresolved)
	}
}

func TestRunSuiteReportsFailures(t *testing.T) {
	bf, err := loadBenchFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	sc := suiteConfig{bench: bf, workloads: []string{"campaign_cold", "campaign_warm"}, reps: 1}
	run := func(w string, seed uint64, traced bool) (runRecord, error) {
		rr, _ := fakeRuns(1)(w, seed, traced)
		if w == "campaign_warm" {
			rr.Digest = "other" // the replay read something the cold run did not write
		}
		return rr, nil
	}
	_, failures := runSuite(sc, run, io.Discard)
	if len(failures) != 1 || !strings.Contains(failures[0], "campaign_warm") {
		t.Errorf("warm digest differing from cold: failures %v", failures)
	}

	run = func(w string, seed uint64, traced bool) (runRecord, error) {
		rr, _ := fakeRuns(1)(w, seed, traced)
		rr.Correct, rr.Failed = false, 1
		return rr, nil
	}
	if _, failures := runSuite(sc, run, io.Discard); len(failures) != 2 {
		t.Errorf("incorrect runs: failures %v", failures)
	}
}
