package main

import (
	"time"

	"falcon/internal/bench"
	"falcon/internal/pmem"
	"falcon/internal/sim"
)

// Host cost of single NVMSpace calls on a private System: 64-byte reads and
// writes over a 1 MiB region that stays cache-resident, and over a 32 MiB
// region walked with a stride that misses the 2.5 MiB simulated cache on
// every call. Each probe reports the median of probeReps timed loops.
const (
	probeCalls   = 100_000
	probeReps    = 5
	hitRegion    = 1 << 20
	missRegion   = 32 << 20
	missStride   = 4096 + 64
	probeLineLen = 64
)

func pmemProbes(m metrics) {
	sys := pmem.NewSystem(pmem.Config{
		Mode:        pmem.EADR,
		DeviceBytes: 2*missRegion + hitRegion,
		CacheBytes:  bench.CacheBytesFor(workers),
	})
	sp, clk := sys.Space, sim.NewClock()
	buf := make([]byte, probeLineLen)
	hit := func(i int) uint64 { return uint64(i*probeLineLen) % hitRegion }
	miss := func(base uint64) func(int) uint64 {
		return func(i int) uint64 { return base + uint64(i*missStride)%missRegion&^(probeLineLen-1) }
	}
	for i := 0; i < hitRegion/probeLineLen; i++ {
		sp.Write(clk, hit(i), buf)
	}
	probe := func(name string, addr func(int) uint64, op func(uint64)) {
		var reps []time.Duration
		for r := 0; r < probeReps; r++ {
			start := time.Now()
			for i := 0; i < probeCalls; i++ {
				op(addr(r*probeCalls + i))
			}
			reps = append(reps, time.Since(start))
		}
		m.set(name, "ns", medianDur(reps)*1e9/probeCalls)
	}
	probe("pmem.probe_read_hit_ns", hit, func(a uint64) { sp.Read(clk, a, buf) })
	probe("pmem.probe_read_miss_ns", miss(hitRegion), func(a uint64) { sp.Read(clk, a, buf) })
	probe("pmem.probe_write_miss_ns", miss(hitRegion+missRegion), func(a uint64) { sp.Write(clk, a, buf) })
	probe("pmem.probe_write_clwb_ns", hit, func(a uint64) {
		sp.Write(clk, a, buf)
		sp.CLWB(clk, a, probeLineLen)
	})
}
