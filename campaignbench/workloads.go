package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"

	"fdp"
	"fdp/internal/core"
	"fdp/internal/dist"
	"fdp/internal/experiments"
	"fdp/internal/obs"
	"fdp/internal/repro"
	"fdp/internal/runner"
	"fdp/internal/stats"
	"fdp/internal/synth"
	"fdp/internal/wspec"
)

// Every workload is a closed-loop batch: one client submits a fixed set of
// jobs and waits for all of them before it submits the next batch. At most
// two jobs run at once, matching a two-core host.
//
// A batch has two parts. The standard part runs the workload's programs
// from the standard suite, synth.WorkloadsWithSeedOffset(0), at its full
// budget. The seeded part runs the same presets as workload specs whose
// master seeds are moved by the run's seed+1, at a quarter of the budget.
// Generated programs differ a lot between seeds (one workload's L1I
// misses per kilo-instruction range over 3x), and host time follows; with
// the seeded part a fifth of the work, the seed moves a batch's time by a
// few percent, while every run still covers programs no other seed has.
// Spec-defined programs are also what a dist worker can rebuild alone: a
// built-in at another seed makes it regenerate the whole suite per lease.
const (
	seededScale      = 4
	campaignParallel = 2
)

// runSize holds the run lengths of every workload and layer probe.
type runSize struct {
	// kernel_golden: each golden pair runs warmup + measure instructions
	// through fdp.Simulate, one pair after another.
	kernelWarmup, kernelMeasure uint64
	// campaign_*: the instruction budgets of experiments.QuickOptions.
	campaignWarmup, campaignMeasure uint64
	// campaign_warm: replays of the cached campaign per batch.
	warmReplays int
	// sweep_ckpt: timing-only configurations per workload (FTQ sizes),
	// fast-forward warmup shared through one checkpoint per workload.
	sweepConfigs              int
	sweepWarmup, sweepMeasure uint64
	// Layer probes of a traced run: instructions replayed through each
	// structure and fast-forwarded per probe, the steady-state measure of
	// each golden pair, and entries sealed and cached.
	probeInsts, probeMeasure uint64
	probeEntries             int
}

func defaultSize() runSize {
	quick := experiments.QuickOptions()
	return runSize{
		kernelWarmup: 200_000, kernelMeasure: 2_000_000,
		campaignWarmup: quick.Warmup, campaignMeasure: quick.Measure,
		warmReplays:  20,
		sweepConfigs: 16, sweepWarmup: 5_000_000, sweepMeasure: 200_000,
		probeInsts: 2_000_000, probeMeasure: 1_000_000, probeEntries: 128,
	}
}

// kernelPairs are the golden (config, workload) pairs of the repo's golden
// harness and kernel suite, named as in BENCH_kernel.json.
var kernelPairs = []struct{ name, config, workload string }{
	{"fdp_server_a", "fdp", "server_a"},
	{"baseline_client_a", "baseline", "client_a"},
	{"eip_server_b", "fdp+eip", "server_b"},
	{"ghrfix_spec_a", "ghr-fix", "spec_a"},
}

// pairWorkloads are the golden pairs' workloads, in pair order.
func pairWorkloads() []string {
	var names []string
	for _, p := range kernelPairs {
		names = append(names, p.workload)
	}
	return names
}

// quickWorkloads is the workload set of experiments.QuickOptions.
var quickWorkloads = []string{"server_a", "server_b", "client_a", "client_b", "spec_a", "spec_b"}

// sweepWorkloads are the workloads of the checkpointed timing sweep.
var sweepWorkloads = []string{"server_a", "server_b", "client_a", "client_b"}

// goldenConfig returns the named golden-pair configuration.
func goldenConfig(name string) core.Config {
	switch name {
	case "baseline":
		return core.BaselineConfig()
	case "fdp+eip":
		c := core.DefaultConfig()
		c.Name = "fdp+eip"
		c.Prefetcher = "eip-27kb"
		return c
	case "ghr-fix":
		c := core.DefaultConfig()
		c.Name = "ghr-fix"
		c.HistPolicy = core.HistGHRFix
		c.BTBAllocPolicy = core.AllocAll
		return c
	}
	return core.DefaultConfig()
}

// part is one part of a batch: its programs and the divisor applied to the
// workload's instruction budgets.
type part struct {
	name  string // "std" or "seed"
	ws    []*synth.Workload
	scale uint64
}

// setupEnv is what a workload's set-up gets besides its programs.
type setupEnv struct {
	work string // scratch directory the workload may write below
	size runSize
}

// workloadDef is one workload of the benchmark.
type workloadDef struct {
	name string
	// programs are the standard workloads a batch runs; the seeded part
	// runs their counterparts.
	programs []string
	setup    func(parts []part, env setupEnv) (bench, error)
}

// workloads lists the workloads in the order BENCHMARK.json declares them.
var workloads = []workloadDef{
	{"kernel_golden", pairWorkloads(), newKernel},
	{"campaign_cold", quickWorkloads, func(p []part, env setupEnv) (bench, error) { return newCampaign(p, env, false) }},
	{"campaign_warm", quickWorkloads, newWarm},
	{"campaign_dist", quickWorkloads, func(p []part, env setupEnv) (bench, error) { return newCampaign(p, env, true) }},
	{"sweep_ckpt", sweepWorkloads, newSweep},
}

func lookupWorkload(name string) (workloadDef, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (known: %s)", name, strings.Join(names, ", "))
}

// parts generates the standard suite and keeps the workload's programs
// from it, then compiles their seeded counterparts.
func (d workloadDef) parts(seed uint64, tr *tracer, parent int) ([]part, error) {
	std := part{name: "std", scale: 1}
	seeded := part{name: "seed", scale: seededScale}
	id := tr.start(parent, "synth", "WorkloadsWithSeedOffset")
	suite := synth.WorkloadsWithSeedOffset(0)
	tr.end(id)
	for _, name := range d.programs {
		j := slices.IndexFunc(suite, func(w *synth.Workload) bool { return w.Name == name })
		if j < 0 {
			return nil, fmt.Errorf("workload %q not in the standard suite", name)
		}
		std.ws = append(std.ws, suite[j])
		id := tr.start(parent, "synth", "FromSpec")
		w, err := synth.FromSpec(seededSpec(suite[j], seed))
		tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("seeded %s: %w", name, err)
		}
		seeded.ws = append(seeded.ws, w)
	}
	return []part{std, seeded}, nil
}

// seededSpec is the workload spec of w's preset and variant with the master
// seed moved by seed+1. Built-in names are <class>_<variant letter>.
func seededSpec(w *synth.Workload, seed uint64) *wspec.Spec {
	return &wspec.Spec{
		Version:     wspec.Version,
		Name:        w.Name,
		Class:       w.Class,
		Seed:        w.Seed + seed + 1,
		SwitchEvery: wspec.DefaultSwitchEvery,
		Mix:         []wspec.Component{{Preset: w.Class, Variant: int(w.Name[len(w.Name)-1] - 'a'), Weight: 1}},
	}
}

// batchOut is what one batch produced. The run loop checks every run and
// digests runs and extra; the digest must not change between batches.
type batchOut struct {
	// jobs is the number of jobs the batch attempted, cache hits included.
	jobs int
	// bad counts jobs the workload itself found wrong.
	bad int
	// labels name the batch's distinct results, runs.
	labels []string
	runs   []*stats.Run
	// extra is further output that must repeat exactly (scorecards).
	extra string
	// checksPassed is the number of repro expectations that passed (the
	// campaign workloads only).
	checksPassed int
	// fleet is the dist coordinator's lease accounting during the batch
	// (campaign_dist only).
	fleet dist.FleetSnapshot
	// timed is the wall and CPU time of the batch's calls into the
	// program; the checks after them are not timed.
	timed meter
}

// bench is one workload, set up and ready to run batch after batch.
type bench interface {
	// prepare does the untimed one-off work some workloads need before
	// their first batch: filling a cache, or computing a reference result
	// to check batches against.
	prepare() error
	// batch runs one batch. A non-nil tracer records spans around the
	// calls into the program and turns on the runner's span timeline.
	batch(tr *tracer) (batchOut, error)
	// parallel is the number of concurrent jobs a batch runs.
	parallel() int
	close()
}

// ---- kernel_golden ----

type kernelJob struct {
	label           string
	cfg             core.Config
	w               *synth.Workload
	warmup, measure uint64
}

type kernelBench struct{ jobs []kernelJob }

func newKernel(parts []part, env setupEnv) (bench, error) {
	b := &kernelBench{}
	for _, p := range parts {
		for i, pair := range kernelPairs {
			b.jobs = append(b.jobs, kernelJob{
				label: pair.name + "@" + p.name, cfg: goldenConfig(pair.config), w: p.ws[i],
				warmup: env.size.kernelWarmup / p.scale, measure: env.size.kernelMeasure / p.scale,
			})
		}
	}
	return b, nil
}

func (b *kernelBench) prepare() error { return nil }
func (b *kernelBench) parallel() int  { return 1 }
func (b *kernelBench) close()         {}

func (b *kernelBench) batch(tr *tracer) (batchOut, error) {
	out := batchOut{jobs: len(b.jobs)}
	for _, j := range b.jobs {
		var (
			r   *stats.Run
			err error
		)
		out.timed.measure(func() {
			id := tr.start(0, "fdp", "Simulate")
			r, err = fdp.Simulate(j.cfg, j.w, j.warmup, j.measure)
			tr.end(id)
		})
		if err != nil {
			return out, fmt.Errorf("%s: %w", j.label, err)
		}
		out.labels = append(out.labels, j.label)
		out.runs = append(out.runs, r)
	}
	return out, nil
}

// ---- campaign_cold, campaign_warm and campaign_dist ----

// campaign is the quick repro campaign (experiments.Score at QuickOptions
// scale), once per part.
type campaign []experiments.Options

func newCampaignOpts(parts []part, size runSize) campaign {
	var c campaign
	for _, p := range parts {
		opts := experiments.QuickOptions()
		opts.Workloads = p.ws
		opts.Warmup = size.campaignWarmup / p.scale
		opts.Measure = size.campaignMeasure / p.scale
		opts.Parallel = campaignParallel
		c = append(c, opts)
	}
	return c
}

// score runs the campaign once, every part against the same cache, timing
// each Score call into m. It returns the scorecards and the number of
// repro expectations that passed.
func (c campaign) score(cache *runner.Cache, backend runner.Backend, tr *tracer, m *meter) (string, int, error) {
	var (
		cards  strings.Builder
		passed int
	)
	for _, opts := range c {
		opts.Cache = cache
		opts.Backend = backend
		var sl *obs.SpanLog
		if tr != nil {
			sl = obs.NewSpanLog()
			opts.Spans = sl
		}
		var (
			card *repro.Scorecard
			err  error
			id   int
		)
		m.measure(func() {
			id = tr.start(0, "experiments", "Score")
			card, err = experiments.Score(opts)
			tr.end(id)
		})
		tr.importRunner(id, sl)
		if err != nil {
			return "", 0, err
		}
		b, err := card.Encode()
		if err != nil {
			return "", 0, err
		}
		cards.Write(b)
		p, _, _ := card.Counts()
		passed += p
	}
	return cards.String(), passed, nil
}

// cold runs the campaign against a fresh on-disk cache in a new directory
// under work, then reads every simulated result back from that cache. It
// returns the batch and the directory.
func (c campaign) cold(work string, backend runner.Backend, tr *tracer) (batchOut, string, error) {
	var out batchOut
	dir, err := os.MkdirTemp(work, "cache-*")
	if err != nil {
		return out, "", err
	}
	cache, err := runner.NewCache(0, dir)
	if err != nil {
		return out, "", err
	}
	out.extra, out.checksPassed, err = c.score(cache, backend, tr, &out.timed)
	hits, misses, _ := cache.Stats()
	out.jobs = int(hits + misses)
	if err != nil {
		return out, "", err
	}
	if out.labels, out.runs, err = readBack(cache, dir); err != nil {
		return out, "", err
	}
	if uint64(len(out.runs)) != misses {
		// Every simulated job must have left exactly one cache entry.
		out.bad += out.jobs
	}
	return out, dir, nil
}

// readBack loads every result a cache directory holds, in key order.
func readBack(cache *runner.Cache, dir string) ([]string, []*stats.Run, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, nil, err
	}
	sort.Strings(files)
	var (
		keys []string
		runs []*stats.Run
	)
	for _, f := range files {
		key := strings.TrimSuffix(filepath.Base(f), ".json")
		r, _, ok := cache.Get(key, false)
		if !ok {
			return nil, nil, fmt.Errorf("cache entry %s does not load", key)
		}
		keys = append(keys, key)
		runs = append(runs, r)
	}
	return keys, runs, nil
}

// campaignBench runs the campaign against a fresh on-disk result cache per
// batch, locally or over in-process dist workers.
type campaignBench struct {
	c    campaign
	work string
	// ref is a local run of the same campaign; campaign_dist batches must
	// reproduce its results.
	ref     batchOut
	useDist bool
	coord   *dist.Coordinator
	servers []*http.Server
	served  chan error
	client  *http.Client
}

func newCampaign(parts []part, env setupEnv, useDist bool) (bench, error) {
	b := &campaignBench{c: newCampaignOpts(parts, env.size), work: env.work, useDist: useDist}
	if useDist {
		if err := b.startFleet(); err != nil {
			b.close()
			return nil, err
		}
	}
	return b, nil
}

// startFleet starts two single-slot dist workers on loopback and a
// coordinator over them, and checks their health.
func (b *campaignBench) startFleet() error {
	b.served = make(chan error, campaignParallel)
	var urls []string
	for i := 0; i < campaignParallel; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fmt.Errorf("dist worker listen: %w", err)
		}
		srv := &http.Server{Handler: dist.NewWorker(dist.WorkerOptions{Slots: 1}).Handler()}
		b.servers = append(b.servers, srv)
		go func() { b.served <- srv.Serve(ln) }()
		urls = append(urls, "http://"+ln.Addr().String())
	}
	b.client = &http.Client{Transport: &http.Transport{}}
	coord, err := dist.NewCoordinator(dist.Config{Workers: urls, Client: b.client})
	if err != nil {
		return err
	}
	if err := coord.Check(context.Background()); err != nil {
		return err
	}
	b.coord = coord
	return nil
}

func (b *campaignBench) parallel() int { return campaignParallel }

func (b *campaignBench) close() {
	for _, srv := range b.servers {
		srv.Close()
	}
	for range b.servers {
		<-b.served // Serve returns once its listener is closed
	}
	b.servers = nil
	if b.client != nil {
		b.client.CloseIdleConnections()
	}
}

// prepare computes campaign_dist's reference: the same campaign run
// locally.
func (b *campaignBench) prepare() error {
	if !b.useDist {
		return nil
	}
	ref, _, err := b.c.cold(b.work, nil, nil)
	if err != nil {
		return fmt.Errorf("local reference campaign: %w", err)
	}
	b.ref = ref
	return nil
}

func (b *campaignBench) batch(tr *tracer) (batchOut, error) {
	if !b.useDist {
		out, _, err := b.c.cold(b.work, nil, tr)
		return out, err
	}
	before := b.coord.Fleet()
	out, _, err := b.c.cold(b.work, b.coord, tr)
	after := b.coord.Fleet()
	out.fleet = dist.FleetSnapshot{
		Leases:    after.Leases - before.Leases,
		Reassigns: after.Reassigns - before.Reassigns,
		Fallbacks: after.Fallbacks - before.Fallbacks,
	}
	if err == nil && (out.extra != b.ref.extra || digestRuns(out.labels, out.runs) != digestRuns(b.ref.labels, b.ref.runs)) {
		out.bad += out.jobs
	}
	return out, err
}

// warmBench replays the campaign from a cache directory that prepare
// filled once.
type warmBench struct {
	c       campaign
	work    string
	replays int
	dir     string
	// fill is the filling batch; every replay must reproduce its
	// scorecards.
	fill batchOut
}

func newWarm(parts []part, env setupEnv) (bench, error) {
	return &warmBench{c: newCampaignOpts(parts, env.size), work: env.work, replays: env.size.warmReplays}, nil
}

func (b *warmBench) parallel() int { return campaignParallel }
func (b *warmBench) close()        {}

func (b *warmBench) prepare() error {
	fill, dir, err := b.c.cold(b.work, nil, nil)
	if err != nil {
		return fmt.Errorf("filling the cache: %w", err)
	}
	if fill.bad > 0 {
		return fmt.Errorf("filling the cache: %d jobs failed their checks", fill.bad)
	}
	fill.jobs, fill.timed = 0, meter{}
	b.fill, b.dir = fill, dir
	return nil
}

func (b *warmBench) batch(tr *tracer) (batchOut, error) {
	out := b.fill
	for i := 0; i < b.replays; i++ {
		// A fresh cache per replay: its first read of every key is a disk
		// read, as when a campaign is resumed or re-run.
		cache, err := runner.NewCache(0, b.dir)
		if err != nil {
			return out, err
		}
		cards, _, err := b.c.score(cache, nil, tr, &out.timed)
		hits, misses, _ := cache.Stats()
		n := int(hits + misses)
		out.jobs += n
		if err != nil {
			return out, err
		}
		// A miss means the replay re-simulated instead of reading the
		// cache; a different scorecard means it read something else.
		if misses != 0 || cards != b.fill.extra {
			out.bad += n
		}
	}
	return out, nil
}

// ---- sweep_ckpt ----

// sweepBench is a timing-only sweep (FTQ sizes) over four workloads per
// part, with fast-forward warmup shared through one checkpoint per
// workload.
type sweepBench struct {
	specs   []runner.Spec
	configs int
	// sample maps a spec index to the same spec's result without a
	// checkpoint (filled by prepare).
	sample map[int]*stats.Run
}

func newSweep(parts []part, env setupEnv) (bench, error) {
	b := &sweepBench{configs: env.size.sweepConfigs, sample: map[int]*stats.Run{}}
	for _, p := range parts {
		for _, w := range p.ws {
			for i := 0; i < b.configs; i++ {
				cfg := core.DefaultConfig()
				cfg.FTQEntries = 4 + 4*i
				cfg.Name = fmt.Sprintf("ftq=%d", cfg.FTQEntries)
				sp := runner.WorkloadSpec(cfg, w, env.size.sweepWarmup/p.scale, env.size.sweepMeasure/p.scale)
				sp.FFwd = true
				b.specs = append(b.specs, sp)
			}
		}
	}
	return b, nil
}

func (b *sweepBench) parallel() int { return campaignParallel }
func (b *sweepBench) close()        {}

// prepare runs one configuration of each workload without checkpoints.
func (b *sweepBench) prepare() error {
	for i := b.configs / 2; i < len(b.specs); i += b.configs {
		res, err := runner.Execute(context.Background(), b.specs[i:i+1], runner.Options{Parallel: 1})
		if err != nil {
			return fmt.Errorf("un-checkpointed %s/%s: %w", b.specs[i].Config.Name, b.specs[i].Workload, err)
		}
		b.sample[i] = res[0].Run
	}
	return nil
}

func (b *sweepBench) batch(tr *tracer) (batchOut, error) {
	out := batchOut{jobs: len(b.specs)}
	cache, err := runner.NewCache(0, "")
	if err != nil {
		return out, err
	}
	opts := runner.Options{Parallel: campaignParallel, Cache: cache, Checkpoint: true}
	if tr != nil {
		opts.Spans = obs.NewSpanLog()
	}
	var (
		res []runner.Result
		id  int
	)
	out.timed.measure(func() {
		id = tr.start(0, "runner", "Execute")
		res, err = runner.Execute(context.Background(), b.specs, opts)
		tr.end(id)
	})
	tr.importRunner(id, opts.Spans)
	if err != nil {
		return out, err
	}
	for i, r := range res {
		// A restored run must equal the same configuration warmed up
		// without a checkpoint.
		if want, ok := b.sample[i]; ok && digestRuns([]string{""}, []*stats.Run{want}) != digestRuns([]string{""}, []*stats.Run{r.Run}) {
			out.bad++
		}
		out.labels = append(out.labels, b.specs[i].Key())
		out.runs = append(out.runs, r.Run)
	}
	return out, nil
}
