package main

import (
	"time"

	"falcon/internal/bench"
	"falcon/internal/core"
	"falcon/internal/obs"
	"falcon/internal/pmem"
)

// newEngine opens the Falcon preset in eADR mode with the default
// per-commit path — what falcon-serve runs — sized for specs, on a
// simulated cache of bench.CacheBytesFor(workers) (2.5 MiB).
func newEngine(specs []core.TableSpec) (*core.Engine, core.Config, error) {
	cfg := core.FalconConfig()
	cfg.Threads = workers
	sys := pmem.NewSystem(pmem.Config{
		Mode:        pmem.EADR,
		DeviceBytes: bench.EstimateDeviceBytes(cfg, specs),
		CacheBytes:  bench.CacheBytesFor(workers),
	})
	e, err := core.New(sys, cfg, specs)
	return e, cfg, err
}

// crashRecover power-fails e's machine and reopens the engine from the
// durable image. A traced run records both steps' times into m.
func crashRecover(m metrics, trace bool, e *core.Engine, cfg core.Config) (*core.Engine, error) {
	start := time.Now()
	sys := e.System().Crash()
	crashed := time.Now()
	e2, _, err := core.Recover(sys, cfg)
	if trace {
		m.set("pmem.crash_s", "s", crashed.Sub(start).Seconds())
		m.set("core.recover_s", "s", time.Since(crashed).Seconds())
	}
	return e2, err
}

// clockNanos samples every worker's virtual clock.
func clockNanos(e *core.Engine) []uint64 {
	var ns []uint64
	for _, c := range e.Clocks() {
		ns = append(ns, c.Nanos())
	}
	return ns
}

// engineLayers sets the per-layer counts of one engine phase: d is the
// ObsSnapshot difference over the phase, ops the operations it completed,
// and clk0/clk1 the worker clocks around it.
func engineLayers(m metrics, d obs.Snapshot, ops uint64, clk0, clk1 []uint64) {
	n := float64(max(ops, 1))
	ratio := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	m.set("cc.abort_ratio", "ratio", ratio(d.Aborts, d.Commits+d.Aborts))
	m.set("cc.aborts.lock-conflict_per_op", "count/op", float64(d.AbortCounts[obs.AbortLockConflict])/n)
	m.set("cc.aborts.validation_per_op", "count/op", float64(d.AbortCounts[obs.AbortValidation])/n)

	mem := d.Mem
	m.set("pmem.cache_hit_ratio", "ratio", ratio(mem.CacheHits, mem.CacheHits+mem.CacheMisses))
	m.set("pmem.cache_misses_per_op", "count/op", float64(mem.CacheMisses)/n)
	m.set("pmem.media_reads_per_op", "count/op", float64(mem.MediaReads)/n)
	m.set("pmem.media_writes_per_op", "count/op", float64(mem.MediaWrites)/n)
	m.set("pmem.write_amp", "ratio", mem.WriteAmplification())
	m.set("pmem.partial_write_share", "ratio", ratio(mem.PartialBlockWrites, mem.PartialBlockWrites+mem.FullBlockWrites))
	m.set("pmem.xpb_merges_per_op", "count/op", float64(mem.XPBufferMerges)/n)
	m.set("pmem.dirty_evictions_per_op", "count/op", float64(mem.DirtyEvictions)/n)
	m.set("pmem.clwb_per_op", "count/op", float64(mem.ClwbWritebacks)/n)

	m.set("core.hot_hit_ratio", "ratio", ratio(d.Hot.Hits, d.Hot.Hits+d.Hot.Misses))
	m.set("wal.bytes_per_op", "B/op", float64(d.WAL.BytesLogged)/n)
	m.set("wal.wraps_per_op", "count/op", float64(d.WAL.Wraps)/n)
	m.set("wal.overflows_per_op", "count/op", float64(d.WAL.Overflows)/n)
	var probes uint64
	for _, t := range d.Tables {
		probes += t.IndexProbes
	}
	m.set("index.probes_per_op", "count/op", float64(probes)/n)

	// Virtual throughput: commits over the mean worker's virtual time.
	var vnanos float64
	for i := range clk1 {
		vnanos += float64(clk1[i] - clk0[i])
	}
	vnanos /= float64(len(clk1))
	vt := 0.0
	if vnanos > 0 {
		vt = float64(d.Commits) / (vnanos / 1e9)
	}
	m.set("sim.vtxn_per_s", "1/s", vt)
	total := d.TotalPhaseNanos()
	for p := obs.PhaseExec; p <= obs.PhaseAbort; p++ {
		m.set("sim.phase_share."+obs.PhaseNames[p], "ratio", ratio(d.PhaseNanos[p], total))
	}
}
