package core

import (
	"falcon/internal/cc"
	"falcon/internal/obs"
)

// ReadForUpdate reads the tuple for key while acquiring write intent
// up-front (select-for-update). Read-modify-write code should prefer this
// over Read+Update: acquiring a shared lock first and upgrading later
// livelocks under no-wait 2PL when two writers collide on a hot tuple —
// e.g. TPC-C's warehouse and district rows.
func (tx *Txn) ReadForUpdate(t *Table, key uint64, dst []byte) error {
	return tx.readForUpdate(t, key, 0, t.schema.TupleSize(), dst)
}

// ReadFieldForUpdate is ReadForUpdate for a single column.
func (tx *Txn) ReadFieldForUpdate(t *Table, key uint64, col int, dst []byte) error {
	return tx.readForUpdate(t, key, t.schema.Offset(col), t.schema.Column(col).Size, dst)
}

func (tx *Txn) readForUpdate(t *Table, key uint64, off, n int, dst []byte) error {
	tx.clk.Advance(tx.e.sys.Cost().OpOverhead)
	if tx.ro {
		return ErrReadOnly
	}
	tx.probe.Touch(int(t.id), key)
	if ins := tx.findInsert(t, key); ins != nil {
		tx.copyPending(ins.t, ins.data, ins.logPos, off, n, dst)
		tx.overlayOwnWrites(t, ins.slot, off, n, dst)
		return nil
	}
	slot, ok := t.primary.Get(tx.clk, key)
	if !ok {
		return ErrNotFound
	}

	if tx.e.cfg.CC.Base() == cc.OCC {
		// OCC defers locking; the read must still be validated, so record
		// it like an ordinary read, then mark the write intent.
		lock, _ := t.heap.Meta(slot)
		if !tx.ownsWrite(t, slot) {
			word := lock.Load()
			if cc.Locked(word) {
				return tx.ccConflict(t, key, slot, word, obs.ConflictLockFail)
			}
			flags := t.heap.ReadFlags(tx.clk, slot)
			tx.readPayload(t, key, slot, off, n, dst)
			if lock.Load() != word {
				return tx.ccConflict(t, key, slot, lock.Load(), obs.ConflictTornRead)
			}
			if err := flagsErr(flags); err != nil {
				return err
			}
			tx.reads = append(tx.reads, readRef{t: t, slot: slot, key: key, word: word})
		} else {
			tx.readPayload(t, key, slot, off, n, dst)
		}
		tx.writesMark(t, key, slot)
		tx.overlayOwnWrites(t, slot, off, n, dst)
		return nil
	}

	// 2PL / TO: take the write lock first, then read under it.
	if err := tx.writeIntent(t, key, slot); err != nil {
		return err
	}
	if err := liveErr(t, tx.clk, slot); err != nil {
		return err
	}
	tx.readPayload(t, key, slot, off, n, dst)
	tx.overlayOwnWrites(t, slot, off, n, dst)
	return nil
}
