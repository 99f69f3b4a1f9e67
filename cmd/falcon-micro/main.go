// falcon-micro regenerates the paper's Figure 3: NVM store bandwidth with
// and without clwb hints, at 256 B / 128 B / 64 B write granularities.
//
// The experiment writes random aligned chunks one million times (configurable)
// and reports effective bandwidth in virtual time. The paper's point: with
// persistent cache, clwb is unnecessary for correctness, yet flushing
// adjacent lines together lets the NVM module's XPBuffer merge them into
// full-block media writes, avoiding read-modify-write amplification.
package main

import (
	"flag"
	"fmt"

	"falcon/internal/bench"
	"falcon/internal/obs"
	"falcon/internal/pmem"
	"falcon/internal/sim"
)

func main() {
	writes := flag.Int("writes", 1_000_000, "number of random writes per configuration")
	region := flag.Uint64("region", 512<<20, "target region size in bytes")
	cf := bench.RegisterCommonFlags(false) // no engine: group commit / contend do not apply
	flag.Parse()

	fmt.Println("Figure 3: bandwidth for data stores w/wo clwbs (eADR)")
	fmt.Printf("%-8s %-18s %-18s\n", "size", "store+sfence", "store+clwb+sfence")
	for _, size := range []int{256, 128, 64} {
		plain, psnap, pdump := run(*writes, size, *region, false, cf.Trace.Options())
		hinted, hsnap, hdump := run(*writes, size, *region, true, cf.Trace.Options())
		plainLabel := fmt.Sprintf("%dB/store+sfence", size)
		hintLabel := fmt.Sprintf("%dB/store+clwb+sfence", size)
		cf.Trace.Collect(plainLabel, pdump)
		cf.Trace.Collect(hintLabel, hdump)
		cf.CollectSnapshot(plainLabel, psnap)
		cf.CollectSnapshot(hintLabel, hsnap)
		fmt.Printf("%-8d %-18s %-18s\n", size, fmtBW(plain), fmtBW(hinted))
		if cf.Stats {
			fmt.Printf("--- stats: size=%d store+sfence ---\n%s", size, psnap.Text())
			fmt.Printf("--- stats: size=%d store+clwb+sfence ---\n%s", size, hsnap.Text())
		}
	}
	cf.Finish()
}

// run measures one configuration and returns bytes/virtual-second plus the
// observability snapshot of the run. The tool has no engine, so it registers
// its own bare phase set over the store loop: stores are heap-write time,
// sfence/clwb are flush time. With topt set it also arms a single-worker
// tracer: phase segments and XPBuffer evictions land in the ring (the ring
// keeps the tail of the run; there are no transactions here, so no sampling).
func run(writes, size int, region uint64, clwb bool, topt *obs.TraceOptions) (float64, obs.Snapshot, *obs.TraceDump) {
	sys := pmem.NewSystem(pmem.Config{
		Mode:        pmem.EADR,
		DeviceBytes: region,
	})
	clk := sim.NewClock()
	reg := obs.NewRegistry()
	var ps obs.PhaseSet
	reg.Register("store", func(s *obs.Snapshot) { ps.AddTo(&s.PhaseNanos) })
	reg.Register("pmem", func(s *obs.Snapshot) { s.Mem = sys.Dev.Stats().Snapshot() })
	buf := make([]byte, size)
	for i := range buf {
		buf[i] = byte(i)
	}
	var pt obs.PhaseTimer
	pt.Start(&ps, clk)
	var tr *obs.Tracer
	if topt != nil {
		tr = obs.NewTracer(1, *topt)
		pt.AttachTrace(tr.Worker(0)) // after Start: Start clears the trace hook
		sys.SetHook(obs.PmemHook(tr, nil))
	}
	pt.To(obs.PhaseHeapWrite)
	// xorshift for the random aligned addresses (the paper's setup).
	state := uint64(0x9E3779B97F4A7C15)
	mask := region/uint64(size) - 1
	for i := 0; i < writes; i++ {
		state ^= state >> 12
		state ^= state << 25
		state ^= state >> 27
		addr := (state * 2685821657736338717 & mask) * uint64(size)
		sys.Space.Write(clk, addr, buf)
		pt.To(obs.PhaseFlush)
		if clwb {
			sys.Space.SFence(clk) // the paper's <sfence + clwbs> sequence
			sys.Space.CLWB(clk, addr, size)
		} else {
			sys.Space.SFence(clk)
		}
		pt.To(obs.PhaseHeapWrite)
	}
	pt.To(obs.PhaseFlush)
	sys.Cache.FlushAll(clk)
	pt.Finish()
	total := float64(writes) * float64(size)
	var dump *obs.TraceDump
	if tr != nil {
		dump = tr.Dump()
	}
	return total / (float64(clk.Nanos()) / 1e9), reg.Snapshot(), dump
}

func fmtBW(bps float64) string {
	return fmt.Sprintf("%.2f GB/s", bps/1e9)
}
