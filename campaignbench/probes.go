package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"fdp/internal/bpred"
	"fdp/internal/btb"
	"fdp/internal/cache"
	"fdp/internal/core"
	"fdp/internal/dist"
	"fdp/internal/ftq"
	"fdp/internal/indirect"
	"fdp/internal/prefetch"
	"fdp/internal/program"
	"fdp/internal/runner"
	"fdp/internal/stats"
	"fdp/internal/synth"
)

// probeLayers times each layer's public calls from outside the program,
// after a traced run's batches: workload generation, the cycle loop of
// every golden pair, fast-forward and checkpoints, every modelled
// structure fed a recorded retired stream, and the result cache and dist
// envelope on the batch's own results. Every call gets a span.
func probeLayers(tr *tracer, size runSize, runs []*stats.Run, work string) (map[string]float64, error) {
	m := map[string]float64{}

	// Generate the standard suite alone, measuring the heap it keeps.
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	id := tr.start(0, "synth", "WorkloadsWithSeedOffset")
	suite := synth.WorkloadsWithSeedOffset(0)
	tr.end(id)
	runtime.GC()
	runtime.ReadMemStats(&ms1)
	m["synth.heap_mb"] = float64(int64(ms1.HeapAlloc)-int64(ms0.HeapAlloc)) / (1 << 20)

	byName := map[string]*synth.Workload{}
	for _, w := range suite {
		byName[w.Name] = w
	}
	if err := probeCore(tr, size, byName, m); err != nil {
		return nil, err
	}
	if err := probeWarmup(tr, size, byName["server_a"], m); err != nil {
		return nil, err
	}
	var evs [][]event
	for _, p := range kernelPairs {
		evs = append(evs, record(byName[p.workload], size.probeInsts))
	}
	probeStructures(tr, evs, m)
	if err := probeCache(tr, size, runs, work, m); err != nil {
		return nil, err
	}
	if err := probeEnvelope(tr, size, runs, m); err != nil {
		return nil, err
	}
	return m, nil
}

// probeCore builds each golden pair's machine, warms it up, and times its
// steady-state cycle loop: exact instruction and cycle counts from the
// core, exact allocation counts from the runtime.
func probeCore(tr *tracer, size runSize, byName map[string]*synth.Workload, m map[string]float64) error {
	var news []float64
	var insts, cycles, allocs uint64
	var total time.Duration
	for _, p := range kernelPairs {
		w := byName[p.workload]
		id := tr.start(0, "core", "New")
		t0 := time.Now()
		c, err := core.New(goldenConfig(p.config), w.NewStream())
		news = append(news, float64(time.Since(t0).Microseconds())/1e3)
		tr.end(id)
		if err != nil {
			return err
		}
		for c.Retired() < size.probeMeasure/10 {
			c.Step(512)
		}
		// Pre-grow the IPC timeline so its amortized growth does not count
		// as a steady-state allocation.
		c.Stats().WindowIPC = make([]float64, 0, 1<<16)
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		c0, i0 := c.Now(), c.Retired()
		id = tr.start(0, "core", "Step")
		t1 := time.Now()
		for c.Retired() < i0+size.probeMeasure {
			c.Step(512)
		}
		dt := time.Since(t1)
		tr.end(id)
		runtime.ReadMemStats(&ms1)
		n := c.Retired() - i0
		m["core."+p.name+".minst_per_s"] = float64(n) / dt.Seconds() / 1e6
		insts += n
		cycles += c.Now() - c0
		allocs += ms1.Mallocs - ms0.Mallocs
		total += dt
	}
	m["core.minst_per_s"] = float64(insts) / total.Seconds() / 1e6
	m["core.ns_per_cycle"] = float64(total.Nanoseconds()) / float64(cycles)
	m["core.steady_allocs"] = float64(allocs)
	m["core.new_ms"] = median(news)
	return nil
}

// probeWarmup times fast-forward, snapshot, oracle advance and restore on
// one workload.
func probeWarmup(tr *tracer, size runSize, w *synth.Workload, m map[string]float64) error {
	ctx := context.Background()
	cfg := core.DefaultConfig()
	c, err := core.New(cfg, w.NewStream())
	if err != nil {
		return err
	}
	n := size.probeInsts
	d, err := timed(tr, "core", "FastForward", func() error { return c.FastForward(ctx, n) })
	if err != nil {
		return err
	}
	m["core.ffwd_minst_per_s"] = float64(n) / d.Seconds() / 1e6
	var snap []byte
	d, err = timed(tr, "core", "Snapshot", func() (err error) { snap, err = c.Snapshot(); return err })
	if err != nil {
		return err
	}
	m["core.snapshot_ms"] = d.Seconds() * 1e3
	m["core.snapshot_bytes"] = float64(len(snap))
	o := w.NewStream()
	d, err = timed(tr, "core", "AdvanceOracle", func() error { return core.AdvanceOracle(ctx, o, n) })
	if err != nil {
		return err
	}
	m["core.advance_oracle_minst_per_s"] = float64(n) / d.Seconds() / 1e6
	c2, err := core.New(cfg, o)
	if err != nil {
		return err
	}
	d, err = timed(tr, "core", "RestoreSnapshot", func() error { return c2.RestoreSnapshot(snap) })
	if err != nil {
		return err
	}
	m["core.restore_ms"] = d.Seconds() * 1e3
	return nil
}

// timed runs f inside a span and returns how long it took.
func timed(tr *tracer, layer, name string, f func() error) (time.Duration, error) {
	id := tr.start(0, layer, name)
	t0 := time.Now()
	err := f()
	d := time.Since(t0)
	tr.end(id)
	return d, err
}

// event is one step of a recorded retired stream: a fetch-line access
// (line set, pc holding the line address) or a retired branch.
type event struct {
	pc, target uint64
	typ        program.InstType
	taken      bool
	line       bool
}

// record retires n instructions of w and keeps the line accesses and
// branches.
func record(w *synth.Workload, n uint64) []event {
	s := w.NewStream()
	var evs []event
	last := ^uint64(0)
	for i := uint64(0); i < n; i++ {
		d := s.Next()
		if l := cache.LineAddr(d.SI.PC); l != last {
			evs = append(evs, event{pc: l, line: true})
			last = l
		}
		if d.SI.Type.IsBranch() {
			evs = append(evs, event{pc: d.SI.PC, target: d.NextPC, typ: d.SI.Type, taken: d.Taken})
		}
	}
	return evs
}

// probeStructures feeds each recorded stream through every modelled
// structure's public API and reports the time per operation.
func probeStructures(tr *tracer, streams [][]event, m map[string]float64) {
	type acc struct {
		d   time.Duration
		ops int
	}
	var tage, ittage, btbs, l1i, q, eip, djolt, fnl acc
	run := func(a *acc, layer, name string, f func() int) {
		d, _ := timed(tr, layer, name, func() error { a.ops += f(); return nil })
		a.d += d
	}
	for _, evs := range streams {
		run(&tage, "bpred", "TAGE.Predict+Update", func() int {
			t := bpred.NewTAGE(bpred.TAGE18KB())
			specs := t.Specs()
			t.Bind(0)
			h := bpred.NewHistory(specs)
			n := 0
			for _, e := range evs {
				if e.line {
					continue
				}
				if e.typ.IsConditional() {
					t.Predict(e.pc, h)
					t.Update(e.pc, h, e.taken)
					n++
				}
				if e.taken {
					h.InsertTaken(e.pc, e.target)
				}
			}
			return n
		})
		run(&ittage, "indirect", "ITTAGE.Predict+Update", func() int {
			it := indirect.New(indirect.DefaultConfig())
			specs := it.Specs()
			it.Bind(0)
			h := bpred.NewHistory(specs)
			n := 0
			for _, e := range evs {
				if e.line {
					continue
				}
				if e.typ.IsIndirect() {
					it.Predict(e.pc, h)
					it.Update(e.pc, h, e.target)
					n++
				}
				if e.taken {
					h.InsertTaken(e.pc, e.target)
				}
			}
			return n
		})
		run(&btbs, "btb", "BTB.Lookup", func() int {
			b := btb.New(core.DefaultConfig().BTBEntries, core.DefaultConfig().BTBWays)
			n := 0
			for _, e := range evs {
				if e.line {
					continue
				}
				if _, _, hit := b.Lookup(e.pc); !hit && e.taken {
					b.Insert(e.pc, e.typ, e.target)
				}
				n++
			}
			return n
		})
		var hits []bool
		run(&l1i, "cache", "Cache.Probe", func() int {
			c := cache.New("l1i", core.DefaultConfig().L1IBytes, core.DefaultConfig().L1IWays)
			for _, e := range evs {
				if !e.line {
					continue
				}
				hit, _ := c.Probe(e.pc)
				if !hit {
					c.Fill(e.pc, false)
				}
				hits = append(hits, hit)
			}
			return len(hits)
		})
		run(&q, "ftq", "FTQ.Push+PopHead", func() int {
			f := ftq.New(core.DefaultConfig().FTQEntries)
			n := 0
			for _, e := range evs {
				if !e.line {
					continue
				}
				if f.Full() {
					f.PopHead()
				}
				f.Push().StartPC = e.pc << cache.LineShift
				n++
			}
			return n
		})
		for _, p := range []struct {
			a    *acc
			name string
			pf   prefetch.Prefetcher
		}{
			{&eip, "EIP", prefetch.NewEIP(prefetch.EIP27KB())},
			{&djolt, "DJOLT", prefetch.NewDJOLT()},
			{&fnl, "FNLMMA", prefetch.NewFNLMMA()},
		} {
			run(p.a, "prefetch", p.name+".OnAccess+OnBranch", func() int {
				emit := func(uint64) {}
				k := 0
				for _, e := range evs {
					if e.line {
						p.pf.OnAccess(e.pc, hits[k], false, emit)
						k++
					} else {
						p.pf.OnBranch(e.pc, e.typ, e.target, emit)
					}
				}
				return k
			})
		}
	}
	per := func(a acc) float64 {
		if a.ops == 0 {
			return 0
		}
		return float64(a.d.Nanoseconds()) / float64(a.ops)
	}
	m["bpred.tage_ns_per_branch"] = per(tage)
	m["indirect.ittage_ns_per_branch"] = per(ittage)
	m["btb.lookup_ns"] = per(btbs)
	m["cache.l1i_probe_ns"] = per(l1i)
	m["ftq.push_pop_ns"] = per(q)
	m["prefetch.eip_ns_per_access"] = per(eip)
	m["prefetch.djolt_ns_per_access"] = per(djolt)
	m["prefetch.fnlmma_ns_per_access"] = per(fnl)
}

// probeKey is a spec-key-shaped cache key for probe entry i.
func probeKey(i int) string {
	h := sha256.Sum256([]byte(fmt.Sprintf("campaignbench-probe-%d", i)))
	return hex.EncodeToString(h[:])
}

// probeCache writes the batch's results to a fresh on-disk result cache,
// then reads them back through a second cache over the same directory, so
// every read is a disk read.
func probeCache(tr *tracer, size runSize, runs []*stats.Run, work string, m map[string]float64) error {
	dir, err := os.MkdirTemp(work, "probe-cache-*")
	if err != nil {
		return err
	}
	put, err := runner.NewCache(0, dir)
	if err != nil {
		return err
	}
	var puts, gets []float64
	for i := 0; i < size.probeEntries; i++ {
		d, _ := timed(tr, "runner", "Cache.Put", func() error { put.Put(probeKey(i), runs[i%len(runs)], nil); return nil })
		puts = append(puts, float64(d.Nanoseconds())/1e3)
	}
	if _, _, diskErrs := put.Stats(); diskErrs > 0 {
		return fmt.Errorf("result cache: %d disk writes failed", diskErrs)
	}
	get, err := runner.NewCache(0, dir)
	if err != nil {
		return err
	}
	var bytes int64
	for i := 0; i < size.probeEntries; i++ {
		var ok bool
		d, _ := timed(tr, "runner", "Cache.Get", func() error { _, _, ok = get.Get(probeKey(i), false); return nil })
		if !ok {
			return fmt.Errorf("result cache: entry %d did not read back", i)
		}
		gets = append(gets, float64(d.Nanoseconds())/1e3)
		fi, err := os.Stat(filepath.Join(dir, probeKey(i)+".json"))
		if err != nil {
			return err
		}
		bytes += fi.Size()
	}
	m["runner.cache_put_us"] = median(puts)
	m["runner.cache_get_us_p50"] = percentile(gets, 50)
	m["runner.cache_get_us_p99"] = percentile(gets, 99)
	m["runner.cache_entry_bytes"] = float64(bytes) / float64(size.probeEntries)
	return nil
}

// probeEnvelope seals each result the way a dist worker returns it, and
// parses and opens it the way the coordinator receives it.
func probeEnvelope(tr *tracer, size runSize, runs []*stats.Run, m map[string]float64) error {
	var seals, opens []float64
	var bytes int
	for i := 0; i < size.probeEntries; i++ {
		key, run := probeKey(i), runs[i%len(runs)]
		var env *dist.Envelope
		d, err := timed(tr, "dist", "SealResult", func() (err error) { env, err = dist.SealResult(key, run, nil); return err })
		if err != nil {
			return err
		}
		seals = append(seals, float64(d.Nanoseconds())/1e3)
		wire, err := json.Marshal(env)
		if err != nil {
			return err
		}
		bytes += len(wire)
		var got *stats.Run
		d, err = timed(tr, "dist", "ParseEnvelope+Open", func() error {
			e, err := dist.ParseEnvelope(wire)
			if err != nil {
				return err
			}
			got, _, err = e.Open(key)
			return err
		})
		if err != nil {
			return err
		}
		if digestRuns([]string{key}, []*stats.Run{got}) != digestRuns([]string{key}, []*stats.Run{run}) {
			return fmt.Errorf("dist envelope: result %d changed in transit", i)
		}
		opens = append(opens, float64(d.Nanoseconds())/1e3)
	}
	m["dist.seal_us"] = median(seals)
	m["dist.open_us"] = median(opens)
	m["dist.envelope_bytes"] = float64(bytes) / float64(size.probeEntries)
	return nil
}
