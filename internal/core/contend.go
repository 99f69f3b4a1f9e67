package core

import (
	"falcon/internal/cc"
	"falcon/internal/heap"
	"falcon/internal/index"
	"falcon/internal/obs"
)

// NewObservatory builds a contention observatory shaped for this engine: one
// recorder shard per worker, the CC algorithm label, the table catalog, and
// the flush-attribution address map (each table's heap plus its NVM index
// regions under the table's name, every thread's log window under "(log)").
// Arm it with Arm; its report lands in ObsSnapshot while armed.
func (e *Engine) NewObservatory() *obs.Observatory {
	names := make([]string, len(e.tables))
	for i, t := range e.tables {
		names[i] = t.name
	}
	o := obs.NewObservatory(obs.ContendConfig{
		Workers: e.cfg.Threads,
		Algo:    e.cfg.CC.String(),
		Tables:  names,
		Banks:   e.sys.XPB.Banks(),
	})
	for _, t := range e.tables {
		hcfg := heap.Config{SlotSize: t.schema.TupleSize(), NSlots: t.heap.NSlots(), NThreads: e.cfg.Threads}
		o.AddRange(t.name, t.heapBase, t.heapBase+heap.BytesNeeded(hcfg))
		if e.cfg.Index == IndexNVM {
			idxCap := t.capacity * 11 / 10
			var pb uint64
			if t.indexKind == index.Hash {
				pb = index.HashBytes(idxCap)
			} else {
				pb = index.BTreeBytes(idxCap)
			}
			o.AddRange(t.name, t.priBase, t.priBase+pb)
			if t.secondary != nil {
				o.AddRange(t.name, t.secBase, t.secBase+index.BTreeBytes(idxCap))
			}
		}
	}
	base, size := e.LogWindowRange()
	o.AddRange("(log)", base, base+size)
	return o
}

// noteConflict reports one CC conflict to the armed observatory shard. word
// is the shadow word observed at the failure site; the writer TID it encodes
// attributes the conflict to the holding worker (a zero TID is the bulk-load
// stamp — no holder).
func (tx *Txn) noteConflict(t *Table, key, slot, word uint64, kind obs.ConflictKind) {
	if tx.probe.ContendShard == nil {
		return
	}
	holder := -1
	if h := cc.HolderTID(tx.e.cfg.CC, word); h != 0 {
		holder = cc.TIDWorker(h)
	}
	tx.probe.Conflict(int(t.id), key, slot, kind, holder, 0, tx.clk.Nanos())
}

// ccConflict is noteConflict returning ErrConflict, for failure-site returns.
func (tx *Txn) ccConflict(t *Table, key, slot, word uint64, kind obs.ConflictKind) error {
	tx.noteConflict(t, key, slot, word, kind)
	return ErrConflict
}
