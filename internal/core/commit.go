package core

import (
	"cmp"
	"errors"
	"runtime"
	"slices"

	"falcon/internal/cc"
	"falcon/internal/index"
	"falcon/internal/obs"
	"falcon/internal/pmem"
	"falcon/internal/sim"
	"falcon/internal/wal"
)

// ErrRollback is the caller-requested abort: Engine.Run aborts the
// transaction and returns ErrRollback without retrying (TPC-C NewOrder's 1%
// intentional rollbacks use this).
var ErrRollback = errors.New("core: rollback requested")

// Commit finishes the transaction. On ErrConflict the transaction is left
// for the caller to Abort (Engine.Run does this automatically).
func (tx *Txn) Commit() error {
	if tx.done {
		return errors.New("core: commit on finished transaction")
	}
	if tx.dt != nil {
		// Group mode: run the worker-side head, then submit to the round
		// barrier, which replays commit tails in canonical order (det.go).
		return tx.commitDet()
	}
	if tx.ro || (len(tx.writes) == 0 && len(tx.inserts) == 0) {
		tx.pt.To(obs.PhaseCC)
		tx.releaseLocksKeep()
		tx.finish(true)
		return nil
	}
	if tx.e.cfg.Update == OutOfPlace {
		return tx.commitOutOfPlace()
	}
	return tx.commitInPlace()
}

// commitInPlace is the paper's Algorithm 1: validate (OCC), publish old
// versions (MVCC), mark the write set COMMITTED (the durable point), apply
// the updates in place, fence, then run the selective data flush.
func (tx *Txn) commitInPlace() error {
	if err := tx.commitHead(); err != nil {
		return err
	}
	tx.commitInPlaceTail()
	return nil
}

// commitHead is the worker-side prologue of every commit with a write set,
// in each mode: an in-place write set that overflowed the log window cannot
// commit, and OCC validates the read set.
func (tx *Txn) commitHead() error {
	if tx.e.cfg.Update == InPlace && tx.log.Full() {
		tx.setAbortCause(obs.AbortLogFull)
		return ErrTxnTooLarge
	}
	if tx.e.cfg.CC.Base() == cc.OCC {
		prev := tx.pt.To(obs.PhaseCC)
		ok := tx.occValidate()
		tx.pt.To(prev)
		if !ok {
			tx.setAbortCause(obs.AbortValidation)
			return ErrConflict
		}
	}
	return nil
}

// commitInPlaceTail is the shared-state half of the in-place commit; group
// mode runs it inside the round barrier.
func (tx *Txn) commitInPlaceTail() {
	tx.publishVersions()

	if tx.e.board != nil {
		tx.commitGroupTail()
		return
	}

	// Durable commit point (Algorithm 1 line 2 + the write-set contents
	// already in the window).
	tx.pt.To(obs.PhaseLogAppend)
	tx.log.Commit(tx.clk)
	tx.pt.To(obs.PhaseHeapWrite)
	apply := tx.applyWriteSet()
	tx.e.nvm.SFence(tx.clk) // Algorithm 1 line 7

	tx.pt.To(obs.PhaseFlush)
	tx.selectiveFlush(apply)
	tx.pt.To(obs.PhaseCC)
	tx.releaseLocksCommitted()
	tx.finish(true)
}

// commitGroupTail is the in-place commit with group commit on. The commit
// splits: the *publish* point makes the record visible (and closes the
// conflict window — locks release and the caller proceeds), while the
// *durable* point is the epoch seal's coalesced drain. Nothing here fences
// or flushes on its own behalf: an unsealed epoch leaves no durable claim,
// so the crash outcome per epoch is all-or-nothing (recovery drops published
// records whose epoch the durable marker does not cover).
func (tx *Txn) commitGroupTail() {
	// Publish point (Algorithm 1 line 2, split from the drain): state word
	// ordered before the heap writes below, like the per-commit path.
	tx.pt.To(obs.PhaseLogAppend)
	epoch := tx.log.Publish(tx.clk)
	tx.pt.To(obs.PhaseHeapWrite)
	apply := tx.applyWriteSet()

	tx.pt.To(obs.PhaseFlush)
	tx.deferredFlush(apply, epoch)
	tx.e.windows[tx.worker].SealExpired(tx.clk) // lazy leader step
	tx.pt.To(obs.PhaseCC)
	tx.releaseLocksCommitted()
	tx.finish(true)
}

// applyWriteSet applies the write set to the tuple heap in log order (so
// later ops override earlier ones) and stamps durable writer timestamps,
// one per touched slot. Touched slots are tracked in first-touch order (a
// map here would iterate in random order, making the WriteTS sequence — and
// with it the simulated cache state — differ between identical runs). The
// returned entries live in the transaction's reused buffer.
func (tx *Txn) applyWriteSet() []applyEntry {
	apply := tx.applyOrder()
	touched := tx.touched[:0]
	markTouched := func(t *Table, slot uint64) {
		for i := range touched {
			if touched[i].t == t && touched[i].slot == slot {
				return
			}
		}
		touched = append(touched, touchedSlot{t, slot})
	}
	for _, a := range apply {
		if a.ins != nil {
			tx.applyInsert(a.ins)
			markTouched(a.ins.t, a.ins.slot)
			tx.tstat(a.ins.t).Writes++
			tx.probe.LogicalBytes(uint64(a.ins.t.id), uint64(a.ins.t.schema.TupleSize()))
			continue
		}
		w := a.w
		switch w.kind {
		case wal.OpUpdate:
			op, _ := tx.log.ReadOp(tx.clk, w.logPos)
			w.t.heap.WriteRange(tx.clk, w.slot, w.off, op.Data)
			markTouched(w.t, w.slot)
			tx.probe.LogicalBytes(uint64(w.t.id), uint64(w.n))
		case wal.OpDelete:
			tx.applyDelete(w)
		}
		tx.tstat(w.t).Writes++
	}
	// Durable writer timestamps, one per touched slot.
	for i := range touched {
		touched[i].t.heap.WriteTS(tx.clk, touched[i].slot, tx.tid)
	}
	tx.touched = touched
	return apply
}

type applyEntry struct {
	pos int
	w   *writeOp
	ins *insertOp
}

type touchedSlot struct {
	t    *Table
	slot uint64
}

// applyOrder merges the buffered writes and inserts into log order, in the
// transaction's reused buffer.
func (tx *Txn) applyOrder() []applyEntry {
	out := tx.applyBuf[:0]
	for i := range tx.writes {
		out = append(out, applyEntry{pos: tx.writes[i].logPos, w: &tx.writes[i]})
	}
	for i := range tx.inserts {
		out = append(out, applyEntry{pos: tx.inserts[i].logPos, ins: &tx.inserts[i]})
	}
	slices.SortFunc(out, func(a, b applyEntry) int { return cmp.Compare(a.pos, b.pos) })
	tx.applyBuf = out
	return out
}

func (tx *Txn) applyInsert(ins *insertOp) {
	t := ins.t
	var payload []byte
	if tx.e.cfg.Update == InPlace {
		op, _ := tx.log.ReadOp(tx.clk, ins.logPos)
		payload = op.Data
	} else {
		payload = ins.data
	}
	// Publish order: payload, then TID, then occupied LAST — the occupied
	// flag makes the slot visible to recovery scans, and a crash between
	// occupied and the TID store would expose the tuple with ts 0 (the
	// always-committed bulk-load stamp).
	t.heap.WritePayload(tx.clk, ins.slot, payload)
	t.heap.WriteTS(tx.clk, ins.slot, tx.tid)
	t.heap.SetOccupied(tx.clk, ins.slot)
	// Initialize the shadow word so future readers see our TID as writer.
	lock, _ := t.heap.Meta(ins.slot)
	if tx.e.cfg.CC.Base() == cc.TwoPL {
		lock.Store(tx.tid & cc.WTSMask2PL)
	} else {
		lock.Store(tx.tid & cc.WTSMaskTO)
	}
	prev := tx.pt.To(obs.PhaseIndexUpdate)
	t.primary.Insert(tx.clk, ins.key, ins.slot) // unique: reservation held
	if t.secondary != nil {
		secKey := t.schema.GetUint64(payload, t.secondaryCol)
		t.secondary.Insert(tx.clk, secKey, ins.slot)
	}
	tx.pt.To(prev)
	tx.releaseKey(t, ins.key)
	tx.e.tcPut(tx.clk, tx.worker, t.id, ins.key, payload)
}

func (tx *Txn) applyDelete(w *writeOp) {
	t := w.t
	// The durable timestamp is the deleting TID (replay guard); the reclaim
	// horizon is a fresh TID so in-flight readers that resolved this slot
	// drain before it is recycled.
	t.heap.Retire(tx.clk, w.slot, tx.tid, tx.e.gen.Next(tx.worker), false)
	prev := tx.pt.To(obs.PhaseIndexUpdate)
	t.primary.Delete(tx.clk, w.key)
	if t.secondary != nil {
		t.secondary.Delete(tx.clk, w.secKey)
	}
	tx.pt.To(prev)
	tx.e.tcInvalidate(tx.clk, t.id, w.key)
}

// selectiveFlush implements §4.4 / Algorithm 1 lines 8-11: hinted flushes
// (<sfence already issued> + clwb over the touched contiguous ranges),
// skipping hot tuples under FlushSelective.
func (tx *Txn) selectiveFlush(apply []applyEntry) {
	policy := tx.e.cfg.Flush
	if policy == FlushNone {
		return
	}
	flushStart := tx.clk.Nanos()
	var flushed, elided uint64
	hot := tx.e.hot[tx.worker]
	for _, a := range apply {
		var t *Table
		var slot uint64
		var off, n int
		switch {
		case a.ins != nil:
			t, slot, off, n = a.ins.t, a.ins.slot, 0, a.ins.t.schema.TupleSize()
		case a.w.kind == wal.OpUpdate:
			t, slot, off, n = a.w.t, a.w.slot, a.w.off, a.w.n
		default: // delete: header-only change
			t, slot, off, n = a.w.t, a.w.slot, 0, 0
		}
		if policy == FlushSelective {
			if hot.contains(tx.clk, t.id, slot) {
				elided++
				continue // hot tuples are never manually flushed
			}
			hot.add(tx.clk, t.id, slot)
		}
		t.heap.CLWBSlot(tx.clk, slot, off, n)
		flushed++
	}
	if tx.probe.WorkerTracer != nil && flushed+elided > 0 {
		tx.probe.Span(obs.EvFlushTrain, flushStart, tx.clk.Nanos(), flushed, elided)
	}
}

// deferredFlush is selectiveFlush's group-commit counterpart: the same
// hot-set policy decides which touched tuples need write-back hints, but
// instead of issuing per-commit clwbs the surviving ranges enlist on the
// record's epoch, where the seal batches adjacent lines into flush trains.
// Hot-set bookkeeping still runs here, at commit time, so elision behaviour
// matches the per-commit path.
func (tx *Txn) deferredFlush(apply []applyEntry, epoch uint64) {
	policy := tx.e.cfg.Flush
	if policy == FlushNone {
		return
	}
	var elided uint64
	hot := tx.e.hot[tx.worker]
	spans := make([]pmem.Span, 0, len(apply)+1)
	for _, a := range apply {
		var t *Table
		var slot uint64
		var off, n int
		switch {
		case a.ins != nil:
			t, slot, off, n = a.ins.t, a.ins.slot, 0, a.ins.t.schema.TupleSize()
		case a.w.kind == wal.OpUpdate:
			t, slot, off, n = a.w.t, a.w.slot, a.w.off, a.w.n
		default: // delete: header-only change
			t, slot, off, n = a.w.t, a.w.slot, 0, 0
		}
		if policy == FlushSelective {
			if hot.contains(tx.clk, t.id, slot) {
				elided++
				continue // hot tuples are never manually flushed
			}
			hot.add(tx.clk, t.id, slot)
		}
		spans = t.heap.FlushSpans(slot, off, n, spans)
	}
	tx.log.EnlistData(tx.clk, epoch, spans)
	_ = elided // counted in the hot-set stats, as on the per-commit path
}

// publishVersions copies the pre-images of updated/deleted tuples into the
// DRAM version heap before they are overwritten (in-place MVCC, §5.2.3).
func (tx *Txn) publishVersions() {
	if !tx.e.cfg.CC.MultiVersion() {
		return
	}
	prev := tx.pt.To(obs.PhaseHeapWrite)
	defer tx.pt.To(prev)
	seen := make(map[*Table]map[uint64]struct{}, 2)
	for i := range tx.writes {
		w := &tx.writes[i]
		m := seen[w.t]
		if m == nil {
			m = make(map[uint64]struct{}, 4)
			seen[w.t] = m
		}
		if _, dup := m[w.slot]; dup {
			continue
		}
		m[w.slot] = struct{}{}
		lock, _ := w.t.heap.Meta(w.slot)
		beginTS := tx.e.wtsOf(lock.Load())
		scratch := tx.e.scratchFor(tx.worker, w.t.schema.TupleSize())
		w.t.heap.ReadPayload(tx.clk, w.slot, scratch)
		w.t.versions.Publish(tx.clk, tx.worker, w.slot, beginTS, tx.tid, scratch)
		tx.tstat(w.t).Versions++
	}
}

// occValidate locks the write set and checks that every read version is
// unchanged (Silo-style; no-wait on conflicts).
func (tx *Txn) occValidate() bool {
	// Lock every written slot (validation locks are recorded as lockRefs so
	// the common release/abort paths apply).
	for i := range tx.occIntents {
		m := &tx.occIntents[i]
		lock, _ := tx.metaFor(m.t, m.slot)
		pre, ok := cc.TryLockTO(lock)
		if !ok {
			tx.noteConflict(m.t, m.key, m.slot, lock.Load(), obs.ConflictValidation)
			return false
		}
		tx.locks = append(tx.locks, lockRef{t: m.t, slot: m.slot, key: m.key, pre: pre, vt: tx.clk.Nanos()})
		if liveErr(m.t, tx.clk, m.slot) != nil {
			// Superseded or deleted while we ran.
			tx.noteConflict(m.t, m.key, m.slot, pre, obs.ConflictValidation)
			return false
		}
	}
	for i := range tx.reads {
		r := &tx.reads[i]
		lock, _ := tx.metaFor(r.t, r.slot)
		cur := lock.Load()
		if cur == r.word {
			continue
		}
		// Changed: acceptable only if the lock is ours and the version
		// matches what we read.
		if cc.Locked(cur) && cc.WTSTO(cur) == cc.WTSTO(r.word) && tx.selfLocked(r.t, r.slot) {
			continue
		}
		tx.noteConflict(r.t, r.key, r.slot, cur, obs.ConflictValidation)
		return false
	}
	return true
}

func (tx *Txn) selfLocked(t *Table, slot uint64) bool {
	for i := range tx.locks {
		l := &tx.locks[i]
		if l.t == t && l.slot == slot && !l.shared {
			return true
		}
	}
	return false
}

// releaseLocksKeep releases every held lock, preserving the pre-lock writer
// timestamps (read-only commit and abort paths).
func (tx *Txn) releaseLocksKeep() {
	if tx.dt != nil {
		// Group mode: locks were taken on the private overlay, which dies
		// with the transaction — nothing to undo on live words.
		tx.locks = tx.locks[:0]
		return
	}
	for i := range tx.locks {
		l := &tx.locks[i]
		lock, _ := l.t.heap.Meta(l.slot)
		switch {
		case l.shared:
			cc.ReadUnlock2PL(lock)
		case tx.e.cfg.CC.Base() == cc.TwoPL:
			cc.WriteUnlock2PLKeepTS(lock)
		default:
			cc.UnlockTOKeep(lock, l.pre)
		}
	}
	tx.locks = tx.locks[:0]
}

// releaseLocksCommitted installs the new writer TID and releases every lock.
func (tx *Txn) releaseLocksCommitted() {
	if tx.dt != nil {
		// Group mode: exclusive locks were taken on the overlay, so there is
		// nothing to unlock — but the new writer timestamp must land on the
		// LIVE word so later rounds observe this commit. Shared locks were
		// never reflected in the live word; skip them (a live ReadUnlock2PL
		// here would underflow the reader count).
		for i := range tx.locks {
			l := &tx.locks[i]
			if l.shared {
				continue
			}
			lock, _ := l.t.heap.Meta(l.slot)
			if tx.e.cfg.CC.Base() == cc.TwoPL {
				cc.WriteUnlock2PL(lock, tx.tid)
			} else {
				cc.UnlockTO(lock, tx.tid)
			}
		}
		tx.locks = tx.locks[:0]
		return
	}
	for i := range tx.locks {
		l := &tx.locks[i]
		lock, _ := l.t.heap.Meta(l.slot)
		if l.shared {
			cc.ReadUnlock2PL(lock)
			continue
		}
		if tx.e.cfg.CC.Base() == cc.TwoPL {
			cc.WriteUnlock2PL(lock, tx.tid)
		} else {
			cc.UnlockTO(lock, tx.tid)
		}
	}
	tx.locks = tx.locks[:0]
}

// Abort rolls back: locks release with their prior versions, reserved keys
// free, pre-allocated insert slots recycle, and the log record is discarded.
func (tx *Txn) Abort() {
	if tx.done {
		return
	}
	tx.pt.To(obs.PhaseAbort)
	if tx.log != nil {
		tx.log.Abort(tx.clk)
	}
	tx.releaseLocksKeep()
	for i := range tx.inserts {
		ins := &tx.inserts[i]
		tx.releaseKey(ins.t, ins.key)
		// The pre-allocated slot was never published; recycle it at once.
		ins.t.heap.Retire(tx.clk, ins.slot, 0, 0, false)
	}
	tx.clk.Advance(tx.e.sys.Cost().AbortOverhead)
	// A bare Abort with no recorded failure is a voluntary rollback.
	if !tx.causeSet {
		tx.cause = obs.AbortUserRollback
	}
	tx.e.abortReasons.Inc(tx.cause)
	tx.finish(false)
}

func (tx *Txn) finish(committed bool) {
	tx.e.active.Clear(tx.worker)
	if committed {
		tx.e.commits.Add(1)
	} else {
		tx.e.aborts.Add(1)
	}
	// Version-heap GC piggybacks on worker threads (§5.4: no dedicated
	// recycling threads).
	if tx.e.cfg.CC.MultiVersion() && committed {
		tx.pt.To(obs.PhaseHeapWrite)
		min := tx.e.active.Min()
		for _, t := range tx.e.tables {
			if t.versions != nil {
				t.versions.MaybeGC(tx.clk, tx.worker, min)
			}
		}
	}
	tx.pt.Finish()
	if tx.probe.WorkerTracer != nil {
		reason := -1
		if !committed {
			reason = int(tx.cause)
		}
		tx.probe.TxnEnd(tx.clk.Nanos(), reason)
		tx.probe.WorkerTracer = nil
	}
	tx.done = true
}

// Run executes fn inside a transaction on worker's thread, retrying on
// conflicts. fn may return ErrRollback to abort without retry. The *Txn
// passed to fn is valid only until fn returns: the engine reuses it for the
// worker's later attempts and calls (Begin and BeginRO return a Txn the
// caller owns).
func (e *Engine) Run(worker int, fn func(*Txn) error) error {
	return e.run(worker, false, nil, fn)
}

// RunRO executes fn inside a read-only transaction, retrying on conflicts.
func (e *Engine) RunRO(worker int, fn func(*Txn) error) error {
	return e.run(worker, true, nil, fn)
}

// RunCancelable is Run with a cancellation hook: canceled is polled before
// each attempt and at every operation entry point inside the transaction; a
// true return aborts the attempt (counted under the "canceled" abort reason)
// and RunCancelable returns ErrCanceled without retrying. The serving layer
// uses this to propagate per-request deadlines into transaction execution.
func (e *Engine) RunCancelable(worker int, canceled func() bool, fn func(*Txn) error) error {
	return e.run(worker, false, canceled, fn)
}

// RunROCancelable is RunRO with a cancellation hook (see RunCancelable).
func (e *Engine) RunROCancelable(worker int, canceled func() bool, fn func(*Txn) error) error {
	return e.run(worker, true, canceled, fn)
}

func (e *Engine) run(worker int, ro bool, canceled func() bool, fn func(*Txn) error) error {
	// The worker's finished Txn from its previous attempt or call is reused:
	// no one else holds it, because run never hands a Txn out beyond fn.
	// Taking it out of the slot keeps a nested run on the same worker from
	// sharing it.
	slot := &e.scratch[worker].spare
	spare := *slot
	*slot = nil
	defer func() { *slot = spare }()
	for {
		if canceled != nil && canceled() {
			return ErrCanceled
		}
		var tx *Txn
		if spare != nil {
			tx = spare.recycle()
		} else {
			tx = &Txn{}
		}
		spare = tx
		e.beginTxn(tx, worker, ro)
		tx.cancel = canceled
		err := fn(tx)
		if err == nil {
			err = tx.Commit()
		}
		if err == nil {
			return nil
		}
		tx.classifyAbort(err)
		tx.Abort()
		if errors.Is(err, ErrConflict) {
			if d := e.det; d != nil {
				// A conflict detected during execution (against round-frozen
				// state) waits out the current round with an empty attempt;
				// one detected at the barrier already consumed the round, so
				// retry immediately. Retried attempts draw strictly larger
				// TIDs, so a stale frozen timestamp eventually clears.
				if tx.dt == nil || !tx.dt.submitted {
					d.group.Submit(&sim.Attempt{Order: tx.tid})
				}
			} else {
				runtime.Gosched() // break retry lockstep between workers
			}
			continue
		}
		return err
	}
}

// Scan iterates tuples with primary key >= from in key order, invoking fn
// with the key and a scratch payload (valid only during the call), until fn
// returns false or limit tuples have been visited (limit <= 0 means no
// limit). The primary index must be a btree.
func (tx *Txn) Scan(t *Table, from uint64, limit int, fn func(key uint64, payload []byte) bool) (int, error) {
	return tx.scanIndex(t, t.primary, from, limit, fn)
}

// ScanSecondary iterates via the secondary index.
func (tx *Txn) ScanSecondary(t *Table, from uint64, limit int, fn func(secKey uint64, payload []byte) bool) (int, error) {
	if t.secondary == nil {
		return 0, index.ErrUnordered
	}
	return tx.scanIndex(t, t.secondary, from, limit, fn)
}

func (tx *Txn) scanIndex(t *Table, idx index.Index, from uint64, limit int, fn func(uint64, []byte) bool) (int, error) {
	// A private buffer: fn may issue reads that use the worker scratch.
	tx.tstat(t).IndexProbes++
	scratch := make([]byte, t.schema.TupleSize())
	visited := 0
	var scanErr error
	err := idx.Scan(tx.clk, from, func(key, slot uint64) bool {
		if limit > 0 && visited >= limit {
			return false
		}
		if err := tx.readSlot(t, key, slot, scratch); err != nil {
			if errors.Is(err, ErrNotFound) {
				return true // concurrently deleted; skip
			}
			scanErr = err
			return false
		}
		visited++
		return fn(key, scratch)
	})
	if err != nil {
		return visited, err
	}
	tx.detRecordScan(t)
	return visited, scanErr
}

// readSlot performs the CC read of an already-resolved slot (scan path).
func (tx *Txn) readSlot(t *Table, key, slot uint64, dst []byte) error {
	if err := tx.checkCancel(); err != nil {
		return err
	}
	tx.clk.Advance(tx.e.sys.Cost().OpOverhead)
	tx.tstat(t).Reads++
	tx.probe.Touch(int(t.id), key)
	return tx.readResolved(t, key, slot, 0, t.schema.TupleSize(), dst)
}
