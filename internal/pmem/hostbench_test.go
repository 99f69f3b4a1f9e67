package pmem

import (
	"testing"

	"falcon/internal/sim"
)

// Host-cost benchmarks for the simulated memory system. Everything here
// measures HOST nanoseconds per simulated operation — the cost of running
// the simulation itself, which bounds how big a sweep fits in a CI budget.
// Virtual-time results are unaffected by any of this.
//
// The loop shapes (64 B ops striding a 32 MiB working set on a 64 MiB
// device) match cmd/falcon-hostbench so `go test -bench` and the tracked
// BENCH_hostperf.json baseline measure the same thing.

func hostbenchSystem() *System {
	return NewSystem(Config{DeviceBytes: 64 << 20, CacheBytes: 2 << 20})
}

func BenchmarkHostStore64(b *testing.B) {
	sys := hostbenchSystem()
	clk := sim.NewClock()
	buf := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Space.Write(clk, uint64(i*64)%(32<<20), buf)
	}
}

func BenchmarkHostLoad64(b *testing.B) {
	sys := hostbenchSystem()
	clk := sim.NewClock()
	buf := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Space.Read(clk, uint64(i*64)%(32<<20), buf)
	}
}

func BenchmarkHostStoreCLWB64(b *testing.B) {
	sys := hostbenchSystem()
	clk := sim.NewClock()
	buf := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := uint64(i*64) % (32 << 20)
		sys.Space.Write(clk, a, buf)
		sys.Space.CLWB(clk, a, 64)
	}
}

// BenchmarkHostStore64Hit keeps the working set inside the simulated cache,
// isolating the hit path (set lookup + copy) from eviction and fill.
func BenchmarkHostStore64Hit(b *testing.B) {
	sys := hostbenchSystem()
	clk := sim.NewClock()
	buf := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Space.Write(clk, uint64(i*64)%(1<<20), buf)
	}
}

// BenchmarkCacheLoad1K and BenchmarkCacheStore1K are the pmem rungs of the
// host-cost ladder for the engine's hit path: 1 KiB accesses (16 lines, one
// tuple) cycling over a 1 MiB working set that stays resident in the 2 MiB
// simulated cache.
func BenchmarkCacheLoad1K(b *testing.B) {
	sys := hostbenchSystem()
	clk := sim.NewClock()
	buf := make([]byte, 1024)
	for a := uint64(0); a < 1<<20; a += 1024 {
		sys.Space.Read(clk, a, buf) // warm
	}
	b.ReportAllocs()
	b.SetBytes(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Space.Read(clk, uint64(i*1024)%(1<<20), buf)
	}
}

func BenchmarkCacheStore1K(b *testing.B) {
	sys := hostbenchSystem()
	clk := sim.NewClock()
	buf := make([]byte, 1024)
	for a := uint64(0); a < 1<<20; a += 1024 {
		sys.Space.Write(clk, a, buf) // warm
	}
	b.ReportAllocs()
	b.SetBytes(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Space.Write(clk, uint64(i*1024)%(1<<20), buf)
	}
}
