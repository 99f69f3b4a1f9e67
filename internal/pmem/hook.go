package pmem

// EventKind classifies one writeback event reported through a Hook. The
// kinds mirror the writeback paths of the simulated memory system: explicit
// CLWB, hinted flush trains, cache capacity evictions, and XPBuffer block
// evictions.
type EventKind uint8

const (
	// EvClwbLine is a dirty 64 B line written back by an explicit CLWB.
	EvClwbLine EventKind = iota
	// EvTrainLine is a dirty line written back inside a CLWBTrain.
	EvTrainLine
	// EvEvictLine is a dirty line written back by cache replacement.
	EvEvictLine
	// EvXPEvictFull is a fully populated 256 B XPBuffer block eviction
	// (single media write).
	EvXPEvictFull
	// EvXPEvictPartial is a partial block eviction (read-modify-write).
	EvXPEvictPartial
)

// Hook receives one writeback event: the causing clock's shard id (= worker
// id, the routing every sharded accumulator here uses), the event kind, the
// line or block address, and the event's virtual-time window (line
// writebacks pass start == end, the clock after the writeback). pmem
// sits below obs in the import graph, so the hook is a plain function type;
// obs.PmemHook builds one for the tracer and the contention observatory.
// Implementations must be worker-local on shard: the hook runs under
// cache-set or buffer-bank spinlocks, so it must only touch shard-private
// state, never allocate, and never block.
type Hook func(shard uint64, kind EventKind, addr, start, end uint64)

// Banks returns the number of independently locked buffer banks — the set
// count for the observatory's XPBuffer set-contention accounting.
func (b *XPBuffer) Banks() int { return len(b.banks) }
