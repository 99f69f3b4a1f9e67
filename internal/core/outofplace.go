package core

import (
	"errors"
	"fmt"

	"falcon/internal/cc"
	"falcon/internal/heap"
	"falcon/internal/obs"
	"falcon/internal/sim"
	"falcon/internal/wal"
)

// commitOutOfPlace implements the log-free commit of the out-of-place
// engines (Outp and ZenS, §2.1.2): each update materializes a complete new
// tuple version in a freshly allocated heap slot, the per-thread commit
// marker makes the transaction durable atomically, and the index is
// repointed afterwards.
//
// Durability protocol (what recovery relies on):
//
//  1. New versions (full payload + writer TID + occupied flag) are written
//     and, per the flush policy, clwb'd. Deletes durably set the deleted
//     flag + TID on the old slot.
//  2. sfence, then the thread's commit marker is set to the TID and flushed.
//     A version is committed iff its TID <= its writer thread's marker.
//  3. Indexes are repointed and old versions invalidated. These steps are
//     idempotently redone by the recovery heap scan, which is why
//     out-of-place recovery time is proportional to heap size (§5.4, §6.5).
func (tx *Txn) commitOutOfPlace() error {
	if err := tx.commitHead(); err != nil {
		return err
	}
	return tx.commitOutOfPlaceTail()
}

// commitOutOfPlaceTail is the shared-state half of the out-of-place commit;
// group mode runs it inside the round barrier.
func (tx *Txn) commitOutOfPlaceTail() error {
	e := tx.e

	// Group update ops by target slot: one new version per logical tuple.
	type group struct {
		t       *Table
		oldSlot uint64
		key     uint64
		newSlot uint64
		del     bool
		ops     []*writeOp
		// oldSec/newSec track the secondary key across the version move.
		oldSec, newSec uint64
	}
	var groups []*group
	byslot := make(map[*Table]map[uint64]*group, 2)
	for i := range tx.writes {
		w := &tx.writes[i]
		m := byslot[w.t]
		if m == nil {
			m = make(map[uint64]*group, 4)
			byslot[w.t] = m
		}
		g := m[w.slot]
		if g == nil {
			g = &group{t: w.t, oldSlot: w.slot, key: w.key}
			m[w.slot] = g
			groups = append(groups, g)
		}
		if w.kind == wal.OpDelete {
			g.del = true
		} else {
			g.ops = append(g.ops, w)
		}
	}

	// Phase 1: materialize new versions / durable delete records.
	tx.pt.To(obs.PhaseHeapWrite)
	for _, g := range groups {
		tx.tstat(g.t).Writes++
		if g.del {
			// The deleted flag + TID on the old slot is the durable delete
			// record; linking for recycling waits until after the marker so
			// an uncommitted delete can be rolled back by recovery.
			g.t.heap.MarkDeleted(tx.clk, g.oldSlot, tx.tid)
			if e.cfg.Flush != FlushNone {
				tx.pt.To(obs.PhaseFlush)
				g.t.heap.CLWBSlot(tx.clk, g.oldSlot, 0, 0)
				tx.pt.To(obs.PhaseHeapWrite)
			}
			continue
		}
		scratch := e.scratchFor(tx.worker, g.t.schema.TupleSize())
		g.t.heap.ReadPayload(tx.clk, g.oldSlot, scratch) // full-tuple copy (§6.2.2: write amplification of out-of-place)
		if e.cfg.OwnershipCopy && g.t.heap.Owner(g.oldSlot) != tx.worker {
			// Zen does not let a thread modify another thread's tuple
			// directly: it copies the tuple into its own pages and
			// invalidates the original first — extra reads that hurt under
			// contended (Zipfian) workloads (§6.2.3).
			g.t.heap.ReadPayload(tx.clk, g.oldSlot, scratch)
		}
		if g.t.secondary != nil {
			g.oldSec = g.t.schema.GetUint64(scratch, g.t.secondaryCol)
		}
		for _, w := range g.ops {
			copy(scratch[w.off:w.off+w.n], w.data)
			tx.probe.LogicalBytes(uint64(g.t.id), uint64(w.n))
		}
		if g.t.secondary != nil {
			g.newSec = g.t.schema.GetUint64(scratch, g.t.secondaryCol)
		}
		slot, err := g.t.heap.Alloc(tx.clk, tx.worker, e.minActive())
		if err != nil {
			retryable := errors.Is(err, heap.ErrReclaimPending)
			// Roll back versions already materialized in this phase so the
			// slots are not leaked.
			for _, rb := range groups {
				if rb == g {
					break
				}
				if !rb.del && rb.newSlot != 0 {
					rb.t.heap.Retire(tx.clk, rb.newSlot, 0, 0, true)
				}
			}
			if retryable {
				return ErrConflict // backpressure: retry once horizons advance
			}
			return fmt.Errorf("%w: %s (out-of-place version)", ErrTableFull, g.t.name)
		}
		g.newSlot = slot
		// Publish order: payload, then TID, then the occupied flag LAST. The
		// occupied flag is what makes the slot visible to the recovery scan;
		// were it written before the TID, a crash between the two stores
		// would expose an uncommitted version with ts 0 — indistinguishable
		// from bulk-loaded (always-committed) data.
		g.t.heap.WritePayload(tx.clk, slot, scratch)
		g.t.heap.WriteTS(tx.clk, slot, tx.tid)
		g.t.heap.SetOccupied(tx.clk, slot)
		if e.cfg.Flush != FlushNone {
			tx.pt.To(obs.PhaseFlush)
			g.t.heap.CLWBSlot(tx.clk, slot, 0, g.t.schema.TupleSize())
			tx.pt.To(obs.PhaseHeapWrite)
		}
		e.tcPut(tx.clk, tx.worker, g.t.id, g.key, scratch)
	}
	// Inserts: fresh slots, same durability rules.
	for i := range tx.inserts {
		ins := &tx.inserts[i]
		tx.tstat(ins.t).Writes++
		tx.probe.LogicalBytes(uint64(ins.t.id), uint64(ins.t.schema.TupleSize()))
		// Same publish order as above: occupied flag last.
		ins.t.heap.WritePayload(tx.clk, ins.slot, ins.data)
		ins.t.heap.WriteTS(tx.clk, ins.slot, tx.tid)
		ins.t.heap.SetOccupied(tx.clk, ins.slot)
		if e.cfg.Flush != FlushNone {
			tx.pt.To(obs.PhaseFlush)
			ins.t.heap.CLWBSlot(tx.clk, ins.slot, 0, ins.t.schema.TupleSize())
			tx.pt.To(obs.PhaseHeapWrite)
		}
	}

	// Phase 2: the commit marker — the out-of-place engines' durable point,
	// accounted as log work (it plays the commit record's role).
	tx.pt.To(obs.PhaseLogAppend)
	e.nvm.SFence(tx.clk)
	tx.writeMarker()

	// Phase 3: index repointing, version chains, invalidation.
	tx.pt.To(obs.PhaseIndexUpdate)
	for _, g := range groups {
		if g.del {
			g.t.primary.Delete(tx.clk, g.key)
			if g.t.secondary != nil {
				// The secondary key was captured at buffering time.
				for i := range tx.writes {
					w := &tx.writes[i]
					if w.t == g.t && w.slot == g.oldSlot && w.kind == wal.OpDelete {
						g.t.secondary.Delete(tx.clk, w.secKey)
						break
					}
				}
			}
			e.tcInvalidate(tx.clk, g.t.id, g.key)
			tx.pt.To(obs.PhaseHeapWrite)
			g.t.heap.Link(tx.clk, g.oldSlot, e.gen.Next(tx.worker))
			tx.pt.To(obs.PhaseIndexUpdate)
			continue
		}
		lock, _ := g.t.heap.Meta(g.oldSlot)
		beginTS := e.wtsOf(lock.Load())
		// Initialize the new slot's shadow word BEFORE the index publishes
		// the slot: once reachable, concurrent readers may lock it, and a
		// blind store would wipe their lock state.
		newLock, _ := g.t.heap.Meta(g.newSlot)
		if e.cfg.CC.Base() == cc.TwoPL {
			newLock.Store(tx.tid & cc.WTSMask2PL)
		} else {
			newLock.Store(tx.tid & cc.WTSMaskTO)
		}
		if g.t.versions != nil {
			tx.pt.To(obs.PhaseHeapWrite)
			g.t.versions.PublishRef(tx.clk, tx.worker, g.newSlot, beginTS, tx.tid, g.oldSlot)
			tx.pt.To(obs.PhaseIndexUpdate)
			tx.tstat(g.t).Versions++
		}
		g.t.primary.Update(tx.clk, g.key, g.newSlot)
		if g.t.secondary != nil {
			// The tuple moved; the secondary must follow. A changed
			// secondary key additionally relocates the entry.
			if g.oldSec == g.newSec {
				g.t.secondary.Update(tx.clk, g.newSec, g.newSlot)
			} else {
				g.t.secondary.Delete(tx.clk, g.oldSec)
				_ = g.t.secondary.Insert(tx.clk, g.newSec, g.newSlot)
			}
		}
		tx.pt.To(obs.PhaseHeapWrite)
		g.t.heap.Retire(tx.clk, g.oldSlot, tx.tid, e.gen.Next(tx.worker), true)
		tx.pt.To(obs.PhaseIndexUpdate)
	}
	for i := range tx.inserts {
		ins := &tx.inserts[i]
		lock, _ := ins.t.heap.Meta(ins.slot)
		if e.cfg.CC.Base() == cc.TwoPL {
			lock.Store(tx.tid & cc.WTSMask2PL)
		} else {
			lock.Store(tx.tid & cc.WTSMaskTO)
		}
		ins.t.primary.Insert(tx.clk, ins.key, ins.slot)
		if ins.t.secondary != nil {
			secKey := ins.t.schema.GetUint64(ins.data, ins.t.secondaryCol)
			ins.t.secondary.Insert(tx.clk, secKey, ins.slot)
		}
		tx.releaseKey(ins.t, ins.key)
		e.tcPut(tx.clk, tx.worker, ins.t.id, ins.key, ins.data)
	}

	tx.pt.To(obs.PhaseCC)
	tx.releaseLocksCommitted()
	tx.finish(true)
	return nil
}

// writeMarker durably records this thread's newest committed TID.
func (tx *Txn) writeMarker() {
	off := tx.e.markerBase + 64*uint64(tx.worker)
	tx.e.nvm.WriteU64(tx.clk, off, tx.tid)
	if tx.e.cfg.Flush != FlushNone {
		tx.e.nvm.CLWB(tx.clk, off, 8)
	}
	tx.e.nvm.SFence(tx.clk)
}

// readMarker returns thread t's newest committed TID from the durable image.
func (e *Engine) readMarker(clk *sim.Clock, t int) uint64 {
	return e.nvm.ReadU64(clk, e.markerBase+64*uint64(t))
}
