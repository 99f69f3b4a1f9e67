package obs

import "falcon/internal/pmem"

// Probe is one worker's instrumentation handle: its tracer and its
// contention-observatory shard, each nil while that consumer is disarmed.
// Both embedded types are nil-receiver safe, so instrumented sites call
// their methods straight through the probe and an unarmed probe costs one
// pointer test per call. A probe is owned by its worker goroutine, like the
// tracer and shard it holds.
type Probe struct {
	*WorkerTracer
	*ContendShard
}

// Conflict records one contention event: kind against (table, key) at heap
// slot, attributed to the holder worker (-1 when unknown), with waitNanos of
// virtual stall (0 for pure abort-and-retry kinds) at virtual time now. When
// the tracer is armed too, the open transaction's span stack so far becomes
// the attribution bucket's exemplar if it is the slowest seen.
func (p Probe) Conflict(table int, key, slot uint64, kind ConflictKind, holder int, waitNanos, now uint64) {
	p.ContendShard.conflict(p.WorkerTracer, table, key, slot, kind, holder, waitNanos, now)
}

// PmemHook returns the pmem hook that feeds tr and o (either may be nil), or
// nil when both are nil. The hook runs under cache-set and buffer-bank
// spinlocks on the goroutine owning the causing clock; both consumers route
// by the clock's shard id and touch only that shard's state.
func PmemHook(tr *Tracer, o *Observatory) pmem.Hook {
	if tr == nil && o == nil {
		return nil
	}
	return func(shard uint64, kind pmem.EventKind, addr, start, end uint64) {
		tr.PmemEvent(shard, kind, addr, start, end)
		o.PmemEvent(shard, kind, addr, start, end)
	}
}
