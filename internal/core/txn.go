package core

import (
	"errors"
	"fmt"
	"runtime"

	"falcon/internal/cc"
	"falcon/internal/heap"
	"falcon/internal/obs"
	"falcon/internal/sim"
	"falcon/internal/wal"
)

// ErrConflict reports a concurrency-control conflict; the transaction has
// been poisoned and must be aborted (Engine.Run does this automatically and
// retries).
var ErrConflict = errors.New("core: transaction conflict")

// ErrDuplicateKey reports an insert of an existing key.
var ErrDuplicateKey = errors.New("core: duplicate key")

// ErrNotFound reports an operation on a missing key.
var ErrNotFound = errors.New("core: key not found")

// ErrTxnTooLarge reports a redo log that exceeded the window's overflow
// capacity.
var ErrTxnTooLarge = errors.New("core: transaction exceeds log capacity")

// ErrReadOnly reports a write attempted in a read-only transaction.
var ErrReadOnly = errors.New("core: read-only transaction")

// ErrCanceled reports a transaction cut short by its cancellation hook: the
// request's deadline expired (or the caller withdrew it) while the
// transaction executed. The attempt is aborted and never retried.
var ErrCanceled = errors.New("core: transaction canceled")

// Txn is one transaction. It is bound to the worker thread that began it and
// must not be shared across goroutines.
type Txn struct {
	e      *Engine
	worker int
	tid    uint64
	clk    *sim.Clock
	ro     bool
	done   bool

	log *wal.TxnLog // in-place engines: the write set lives in the window

	// pt attributes this transaction's virtual time to commit-path phases;
	// cause records the abort reason determined at the failure site (see
	// setAbortCause), consumed by Abort.
	pt       obs.PhaseTimer
	cause    obs.AbortReason
	causeSet bool
	// probe is this worker's instrumentation handle while the engine is
	// armed (see Engine.Arm): its tracer and contention shard are nil when
	// disarmed, so the instrumented sites pay one pointer test.
	probe obs.Probe
	// dt is the deterministic group-mode state (nil in free-running mode —
	// the instrumented sites pay one pointer test). See det.go.
	dt *detTxn
	// cancel, when non-nil, is polled at operation entry points; a true
	// return makes the op fail with ErrCanceled (deadline propagation from
	// the serving layer — nil in the common embedded case, so the op path
	// pays one pointer test).
	cancel func() bool

	writes     []writeOp
	inserts    []insertOp
	reads      []readRef
	locks      []lockRef
	occIntents []lockRef // OCC write intents awaiting validation-time locks

	// Commit-time scratch, reused across the commits of a recycled Txn (see
	// Engine.run): the log-ordered apply list and the slots whose writer
	// timestamps it stamps.
	applyBuf []applyEntry
	touched  []touchedSlot
}

// recycle returns tx, finished, as a fresh zero Txn that keeps its slices'
// backing arrays, so the next transaction on the worker appends into them
// without allocating. Only the engine may recycle a Txn, and only one whose
// lifetime it owns (Engine.run): a caller-held *Txn must never change
// underneath its holder.
func (tx *Txn) recycle() *Txn {
	*tx = Txn{
		writes: tx.writes[:0], inserts: tx.inserts[:0], reads: tx.reads[:0],
		locks: tx.locks[:0], occIntents: tx.occIntents[:0],
		applyBuf: tx.applyBuf[:0], touched: tx.touched[:0],
	}
	return tx
}

// setAbortCause records why this transaction is about to abort. Later calls
// overwrite earlier ones: the error that finally forces the abort wins (a
// conflict swallowed and retried by the closure must not misattribute a
// subsequent user rollback).
func (tx *Txn) setAbortCause(r obs.AbortReason) {
	tx.cause, tx.causeSet = r, true
}

// classifyAbort maps the error that aborted the transaction onto the abort
// taxonomy. ErrConflict keeps a more specific cause recorded at the failure
// site (occValidate marks validation failures) and otherwise defaults to a
// lock conflict, which covers the exec-time no-wait CC rejections.
func (tx *Txn) classifyAbort(err error) {
	switch {
	case errors.Is(err, ErrRollback):
		tx.setAbortCause(obs.AbortUserRollback)
	case errors.Is(err, ErrTableFull):
		tx.setAbortCause(obs.AbortTableFull)
	case errors.Is(err, ErrTxnTooLarge):
		tx.setAbortCause(obs.AbortLogFull)
	case errors.Is(err, ErrCanceled):
		tx.setAbortCause(obs.AbortCanceled)
	case errors.Is(err, ErrConflict):
		if !tx.causeSet {
			tx.setAbortCause(obs.AbortLockConflict)
		}
	default:
		tx.setAbortCause(obs.AbortOther)
	}
}

// writeOp is one buffered update or delete.
type writeOp struct {
	t    *Table
	kind uint8 // wal.OpUpdate or wal.OpDelete
	slot uint64
	key  uint64
	off  int
	n    int
	// logPos locates the op in the log window (in-place engines).
	logPos int
	// data holds the post-image for out-of-place engines (DRAM buffered).
	data []byte
	// secKey caches the secondary key captured at buffering time (deletes).
	secKey uint64
}

// insertOp is one buffered insert; the slot is pre-allocated and private to
// the transaction until commit publishes it in the index.
type insertOp struct {
	t      *Table
	slot   uint64
	key    uint64
	logPos int
	data   []byte // out-of-place engines
}

// readRef records an OCC read for validation; group mode records every CC
// algorithm's reads here, stamped with their virtual time, for the round
// barrier's conflict windows.
type readRef struct {
	t    *Table
	slot uint64
	key  uint64 // primary key (contention attribution)
	word uint64
	vt   uint64 // read vtime (group-mode barrier validation)
}

// lockRef records a held lock for release at commit/abort.
type lockRef struct {
	t      *Table
	slot   uint64
	key    uint64 // primary key (contention attribution)
	shared bool   // 2PL read lock
	pre    uint64 // pre-lock word (TO/OCC restore on abort)
	vt     uint64 // acquisition vtime (group-mode barrier validation)
}

// Begin starts a read-write transaction on worker's thread.
func (e *Engine) Begin(worker int) *Txn {
	return e.begin(worker, false)
}

// BeginRO starts a read-only transaction. Under multi-version algorithms it
// reads a consistent snapshot without acquiring any locks; under
// single-version algorithms it is an ordinary transaction that happens not
// to write.
func (e *Engine) BeginRO(worker int) *Txn {
	return e.begin(worker, true)
}

func (e *Engine) begin(worker int, ro bool) *Txn {
	return e.beginTxn(&Txn{}, worker, ro)
}

// beginTxn starts tx, a zero Txn (possibly recycled), on worker's thread.
func (e *Engine) beginTxn(tx *Txn, worker int, ro bool) *Txn {
	clk := e.clocks[worker]
	var tid uint64
	if e.det != nil {
		tid = e.detTID(worker, clk)
	} else {
		tid = e.gen.Next(worker)
	}
	e.active.Set(worker, tid)
	tx.e, tx.worker, tx.tid, tx.clk, tx.ro = e, worker, tid, clk, ro
	if e.det != nil {
		tx.dt = &detTxn{ov: make(map[detSlot]*ovEntry, 8)}
	}
	// Start the phase timer before charging the begin overhead so the phases
	// partition every transactional nanosecond (the overhead lands in exec).
	tx.pt.Start(&e.phases[worker], clk)
	if e.probes != nil {
		tx.probe = e.probes[worker]
		tx.probe.TxnBegin(tid, clk.Nanos())
		tx.pt.AttachTrace(tx.probe.WorkerTracer)
	}
	clk.Advance(e.sys.Cost().TxnOverhead)
	if e.cfg.Update == InPlace && !ro {
		if e.board != nil {
			// Group-commit backpressure: the next slot's record may belong
			// to an epoch that has not reached its durable point; wait out
			// the bounded epoch timeout before overwriting it.
			tx.pt.To(obs.PhaseGroupWait)
			e.windows[worker].GroupWait(clk)
		}
		tx.pt.To(obs.PhaseLogAppend)
		tx.log = e.windows[worker].Begin(clk, tid)
		tx.pt.To(obs.PhaseExec)
	}
	return tx
}

// TID returns the transaction id (also its snapshot timestamp).
func (tx *Txn) TID() uint64 { return tx.tid }

// snapshotRead reports whether reads bypass concurrency control via the
// version store.
func (tx *Txn) snapshotRead() bool { return tx.ro && tx.e.cfg.CC.MultiVersion() }

// wtsOf extracts the writer TID from a shadow word under the engine's CC
// encoding.
func (e *Engine) wtsOf(word uint64) uint64 {
	if e.cfg.CC.Base() == cc.TwoPL {
		return cc.WTS2PL(word)
	}
	return cc.WTSTO(word)
}

// ---- read path ----

// Read copies the tuple payload for key into dst (len >= tuple size). It
// returns ErrNotFound for missing keys and ErrConflict on CC conflicts.
func (tx *Txn) Read(t *Table, key uint64, dst []byte) error {
	return tx.read(t, key, 0, t.schema.TupleSize(), dst)
}

// ReadField copies one column of the tuple for key into dst.
func (tx *Txn) ReadField(t *Table, key uint64, col int, dst []byte) error {
	return tx.read(t, key, t.schema.Offset(col), t.schema.Column(col).Size, dst)
}

// tstat returns this worker's counter row for t. Single-owner like the
// phase sets: only the owning worker writes it.
func (tx *Txn) tstat(t *Table) *obs.TableStats {
	return &tx.e.tstats[tx.worker][t.id].TableStats
}

// checkCancel polls the cancellation hook; every operation entry point calls
// it so an expired deadline surfaces within one op, not one transaction.
func (tx *Txn) checkCancel() error {
	if tx.cancel != nil && tx.cancel() {
		return ErrCanceled
	}
	return nil
}

func (tx *Txn) read(t *Table, key uint64, off, n int, dst []byte) error {
	if err := tx.checkCancel(); err != nil {
		return err
	}
	tx.clk.Advance(tx.e.sys.Cost().OpOverhead)
	tx.tstat(t).Reads++
	tx.probe.Touch(int(t.id), key)

	// Read-your-own-insert.
	if ins := tx.findInsert(t, key); ins != nil {
		tx.copyPending(ins.t, ins.data, ins.logPos, off, n, dst)
		tx.overlayOwnWrites(t, ins.slot, off, n, dst)
		return nil
	}
	slot, ok := tx.resolve(t, key)
	if !ok {
		return ErrNotFound
	}
	return tx.readResolved(t, key, slot, off, n, dst)
}

// resolve looks key up in the primary index. When the engine distrusts its
// recovered NVM index (see Engine.validateHits) the hit is validated
// against the tuple's durable key column and flags: a key mismatch or a
// dead occupant means the entry is a stale survivor of a lost in-cache
// index update and is treated as a miss. (A key whose live version moved
// was repointed during recovery, so a surviving dead-slot entry can only
// belong to a key with no live version.)
func (tx *Txn) resolve(t *Table, key uint64) (uint64, bool) {
	tx.tstat(t).IndexProbes++
	slot, ok := t.primary.Get(tx.clk, key)
	if !ok {
		return 0, false
	}
	if tx.e.validateHits {
		if t.heap.ReadFlags(tx.clk, slot)&(heap.FlagDeleted|heap.FlagInvalidated) != 0 {
			return 0, false
		}
		if t.heap.ReadRangeU64(tx.clk, slot, t.schema.Offset(t.keyCol)) != key {
			return 0, false
		}
	}
	return slot, true
}

// readResolved is the concurrency-controlled read of an already-resolved
// heap slot, shared by point reads and scans.
func (tx *Txn) readResolved(t *Table, key, slot uint64, off, n int, dst []byte) error {
	if tx.snapshotRead() {
		return tx.snapshotReadSlot(t, key, slot, off, n, dst)
	}

	lock, _ := tx.metaFor(t, slot)

	// Read-your-own-write: the slot is already locked by us; read the base
	// tuple and overlay pending ops.
	if tx.ownsWrite(t, slot) {
		tx.readPayload(t, key, slot, off, n, dst)
		tx.overlayOwnWrites(t, slot, off, n, dst)
		return nil
	}

	switch tx.e.cfg.CC.Base() {
	case cc.TwoPL:
		if !tx.holdsShared(t, slot) {
			if !cc.TryReadLock2PL(lock) {
				return tx.ccConflict(t, key, slot, lock.Load(), obs.ConflictLockFail)
			}
			tx.locks = append(tx.locks, lockRef{t: t, slot: slot, key: key, shared: true, vt: tx.clk.Nanos()})
		}
		// The lock makes the flags stable.
		if err := liveErr(t, tx.clk, slot); err != nil {
			return err
		}
		tx.readPayload(t, key, slot, off, n, dst)
		tx.detRecordRead(t, slot, key)
		return nil

	case cc.TO:
		word := lock.Load()
		if cc.Locked(word) {
			return tx.ccConflict(t, key, slot, word, obs.ConflictLockFail)
		}
		if cc.WTSTO(word) > tx.tid {
			return tx.ccConflict(t, key, slot, word, obs.ConflictTSOrder)
		}
		flags := t.heap.ReadFlags(tx.clk, slot)
		_, readTS := tx.metaFor(t, slot)
		cc.MaxTS(readTS, tx.tid)
		tx.readPayload(t, key, slot, off, n, dst)
		if lock.Load() != word {
			// Concurrent writer slipped in: torn read.
			return tx.ccConflict(t, key, slot, lock.Load(), obs.ConflictTornRead)
		}
		if err := flagsErr(flags); err != nil {
			return err
		}
		tx.detRecordRead(t, slot, key)
		return nil

	default: // OCC
		word := lock.Load()
		if cc.Locked(word) {
			return tx.ccConflict(t, key, slot, word, obs.ConflictLockFail) // no-wait
		}
		flags := t.heap.ReadFlags(tx.clk, slot)
		tx.readPayload(t, key, slot, off, n, dst)
		if lock.Load() != word {
			return tx.ccConflict(t, key, slot, lock.Load(), obs.ConflictTornRead)
		}
		if err := flagsErr(flags); err != nil {
			return err
		}
		tx.reads = append(tx.reads, readRef{t: t, slot: slot, key: key, word: word, vt: tx.clk.Nanos()})
		return nil
	}
}

// flagsErr maps slot flags to read outcomes: deleted tuples read as absent;
// an invalidated (superseded out-of-place) version forces a retry so the
// reader re-resolves the index to the current version.
func flagsErr(flags uint8) error {
	if flags&heap.FlagDeleted != 0 {
		return ErrNotFound
	}
	if flags&heap.FlagInvalidated != 0 {
		return ErrConflict
	}
	return nil
}

func liveErr(t *Table, clk *sim.Clock, slot uint64) error {
	return flagsErr(t.heap.ReadFlags(clk, slot))
}

// liveIntent rejects write intents on dead slots — a writer may have raced
// us to this version and superseded it; the index must be re-resolved. The
// just-acquired lock stays tracked and is released on abort.
func (tx *Txn) liveIntent(t *Table, slot uint64) error {
	if err := liveErr(t, tx.clk, slot); err != nil {
		if errors.Is(err, ErrNotFound) {
			return err
		}
		return ErrConflict
	}
	return nil
}

// readPayload reads tuple bytes, consulting the ZenS tuple cache when
// enabled.
func (tx *Txn) readPayload(t *Table, key uint64, slot uint64, off, n int, dst []byte) {
	if tc := tx.tupleCache(); tc != nil {
		scratch := tx.e.scratchFor(tx.worker, t.schema.TupleSize())
		if tc.get(tx.clk, t.id, key, scratch) {
			copy(dst[:n], scratch[off:off+n])
			return
		}
		t.heap.ReadPayload(tx.clk, slot, scratch)
		tc.put(tx.clk, t.id, key, scratch)
		copy(dst[:n], scratch[off:off+n])
		return
	}
	t.heap.ReadRange(tx.clk, slot, off, dst[:n])
}

// snapshotReadSlot performs the MVCC read of Figure 6: try the in-NVM tuple
// with a seqlock check; fall back to the version chain. A snapshot newer
// than an in-flight writer must wait for that writer's in-place apply to
// finish (its chain only covers older intervals), so the loop spins briefly
// in that case — writers hold tuples only across the short apply phase.
func (tx *Txn) snapshotReadSlot(t *Table, key, slot uint64, off, n int, dst []byte) error {
	if tx.probe == (obs.Probe{}) {
		return tx.snapshotReadSlotSpin(t, slot, off, n, dst, nil)
	}
	// Traced or observed: if the read had to spin behind a mid-apply writer,
	// record the stall as a lock-wait span / spin-wait conflict (start
	// approximates the first probe).
	var spins uint64
	start := tx.clk.Nanos()
	err := tx.snapshotReadSlotSpin(t, slot, off, n, dst, &spins)
	if spins > 0 {
		now := tx.clk.Nanos()
		// The span first, so the conflict's exemplar captures it.
		tx.probe.Span(obs.EvLockWait, start, now, slot, spins)
		if tx.probe.ContendShard != nil {
			// The word now carries the writer we waited behind.
			lock, _ := t.heap.Meta(slot)
			holder := -1
			if h := cc.HolderTID(tx.e.cfg.CC, lock.Load()); h != 0 {
				holder = cc.TIDWorker(h)
			}
			tx.probe.Conflict(int(t.id), key, slot, obs.ConflictSpinWait, holder, now-start, now)
		}
	}
	return err
}

func (tx *Txn) snapshotReadSlotSpin(t *Table, slot uint64, off, n int, dst []byte, spins *uint64) error {
	lock, _ := t.heap.Meta(slot)
	for {
		word := lock.Load()
		if !cc.Locked(word) && tx.e.wtsOf(word) <= tx.tid {
			flags := t.heap.ReadFlags(tx.clk, slot)
			t.heap.ReadRange(tx.clk, slot, off, dst[:n])
			if lock.Load() == word {
				if flags&heap.FlagDeleted != 0 {
					// Deleted at or before our snapshot.
					return ErrNotFound
				}
				if flags&heap.FlagInvalidated == 0 {
					return nil
				}
				// Superseded out-of-place version: consult the chain.
			} else {
				continue // torn read: retry
			}
		}
		if v := t.versions.ReadVisible(tx.clk, slot, tx.tid); v != nil {
			if v.SlotRef != 0 {
				t.heap.ReadRange(tx.clk, v.SlotRef-1, off, dst[:n])
			} else {
				copy(dst[:n], v.Data[off:off+n])
			}
			return nil
		}
		if word = lock.Load(); !cc.Locked(word) {
			flags := t.heap.ReadFlags(tx.clk, slot)
			if flags&heap.FlagInvalidated != 0 {
				// Stale out-of-place version whose chain migrated to its
				// successor; re-resolve through the index.
				return ErrConflict
			}
			if flags&heap.FlagDeleted != 0 {
				return ErrNotFound
			}
			if tx.e.wtsOf(word) > tx.tid {
				// Genuinely created after our snapshot.
				return ErrNotFound
			}
		}
		// A writer newer than every chained version but older than our
		// snapshot is mid-apply; wait for it.
		if spins != nil {
			*spins++
		}
		runtime.Gosched()
	}
}

// ---- write buffering ----

// Update overwrites payload bytes [off, off+len(data)) of the tuple for key.
func (tx *Txn) Update(t *Table, key uint64, off int, data []byte) error {
	if err := tx.checkCancel(); err != nil {
		return err
	}
	cost := tx.e.sys.Cost()
	tx.clk.Advance(cost.OpOverhead)
	if tx.ro {
		return ErrReadOnly
	}

	tx.probe.Touch(int(t.id), key)
	if ins := tx.findInsert(t, key); ins != nil {
		return tx.updatePendingInsert(ins, off, data)
	}
	slot, ok := tx.resolve(t, key)
	if !ok {
		return ErrNotFound
	}
	if err := tx.writeIntent(t, key, slot); err != nil {
		return err
	}
	return tx.bufferWrite(t, wal.OpUpdate, slot, key, off, data, 0)
}

// UpdateField overwrites one column.
func (tx *Txn) UpdateField(t *Table, key uint64, col int, data []byte) error {
	return tx.Update(t, key, t.schema.Offset(col), data)
}

// Delete removes the tuple for key at commit.
func (tx *Txn) Delete(t *Table, key uint64) error {
	if err := tx.checkCancel(); err != nil {
		return err
	}
	cost := tx.e.sys.Cost()
	tx.clk.Advance(cost.OpOverhead)
	if tx.ro {
		return ErrReadOnly
	}
	tx.probe.Touch(int(t.id), key)
	slot, ok := tx.resolve(t, key)
	if !ok {
		return ErrNotFound
	}
	if err := tx.writeIntent(t, key, slot); err != nil {
		return err
	}
	var secKey uint64
	if t.secondary != nil {
		secKey = t.heap.ReadRangeU64(tx.clk, slot, t.schema.Offset(t.secondaryCol))
	}
	return tx.bufferWrite(t, wal.OpDelete, slot, key, 0, nil, secKey)
}

// Insert adds a tuple with the given payload (len = tuple size). The key
// must equal the payload's key column; the slot becomes visible at commit.
func (tx *Txn) Insert(t *Table, key uint64, payload []byte) error {
	if err := tx.checkCancel(); err != nil {
		return err
	}
	cost := tx.e.sys.Cost()
	tx.clk.Advance(cost.OpOverhead)
	if tx.ro {
		return ErrReadOnly
	}
	tx.probe.Touch(int(t.id), key)
	if tx.findInsert(t, key) != nil {
		return ErrDuplicateKey
	}
	if !tx.reserveKey(t, key) {
		// Another in-flight insert holds the key latch.
		return tx.ccConflict(t, key, 0, 0, obs.ConflictLockFail)
	}
	if _, exists := tx.resolve(t, key); exists {
		tx.releaseKey(t, key)
		return ErrDuplicateKey
	}
	slot, err := t.heap.Alloc(tx.clk, tx.worker, tx.e.minActive())
	if err != nil {
		tx.releaseKey(t, key)
		if errors.Is(err, heap.ErrReclaimPending) {
			return ErrConflict // backpressure: retry once horizons advance
		}
		return fmt.Errorf("%w: %s (insert)", ErrTableFull, t.name)
	}
	ins := insertOp{t: t, slot: slot, key: key}
	if tx.e.cfg.Update == InPlace {
		pos := tx.logAppendInsert(t, slot, key, payload)
		if pos < 0 {
			tx.releaseKey(t, key)
			return ErrTxnTooLarge
		}
		ins.logPos = pos
	} else {
		ins.data = append([]byte(nil), payload[:t.schema.TupleSize()]...)
		chargeDRAMCopy(tx.clk, cost, len(ins.data))
	}
	tx.inserts = append(tx.inserts, ins)
	return nil
}

// writeIntent acquires the algorithm-specific right to write slot,
// attributing the acquisition to the CC phase.
func (tx *Txn) writeIntent(t *Table, key, slot uint64) error {
	prev := tx.pt.To(obs.PhaseCC)
	err := tx.writeIntentCC(t, key, slot)
	tx.pt.To(prev)
	return err
}

func (tx *Txn) writeIntentCC(t *Table, key, slot uint64) error {
	if tx.ownsWrite(t, slot) {
		return nil
	}
	lock, readTS := tx.metaFor(t, slot)
	switch tx.e.cfg.CC.Base() {
	case cc.TwoPL:
		if tx.holdsShared(t, slot) {
			if !cc.TryUpgrade2PL(lock) {
				return tx.ccConflict(t, key, slot, lock.Load(), obs.ConflictUpgrade)
			}
			tx.dropShared(t, slot)
			tx.locks = append(tx.locks, lockRef{t: t, slot: slot, key: key, vt: tx.clk.Nanos()})
			return tx.liveIntent(t, slot)
		}
		if !cc.TryWriteLock2PL(lock) {
			return tx.ccConflict(t, key, slot, lock.Load(), obs.ConflictLockFail)
		}
		tx.locks = append(tx.locks, lockRef{t: t, slot: slot, key: key, vt: tx.clk.Nanos()})
		return tx.liveIntent(t, slot)

	case cc.TO:
		pre, ok := cc.TryLockTO(lock)
		if !ok {
			return tx.ccConflict(t, key, slot, lock.Load(), obs.ConflictLockFail)
		}
		if cc.WTSTO(pre) > tx.tid || readTS.Load() > tx.tid {
			cc.UnlockTOKeep(lock, pre)
			return tx.ccConflict(t, key, slot, pre, obs.ConflictTSOrder)
		}
		tx.locks = append(tx.locks, lockRef{t: t, slot: slot, key: key, pre: pre, vt: tx.clk.Nanos()})
		return tx.liveIntent(t, slot)

	default: // OCC defers locking to validation
		tx.writesMark(t, key, slot)
		return nil
	}
}

// bufferWrite records the op in the write set (the log window for in-place
// engines, DRAM for out-of-place).
func (tx *Txn) bufferWrite(t *Table, kind uint8, slot, key uint64, off int, data []byte, secKey uint64) error {
	op := writeOp{t: t, kind: kind, slot: slot, key: key, off: off, n: len(data), secKey: secKey}
	if tx.e.cfg.Update == InPlace {
		var pos int
		if kind == wal.OpDelete {
			pos = tx.logAppendDelete(t, slot, key)
		} else {
			pos = tx.logAppendUpdate(t, slot, key, off, data)
		}
		if pos < 0 {
			return ErrTxnTooLarge
		}
		op.logPos = pos
	} else {
		if kind != wal.OpDelete {
			op.data = append([]byte(nil), data...)
			chargeDRAMCopy(tx.clk, tx.e.sys.Cost(), len(data))
		}
	}
	tx.writes = append(tx.writes, op)
	return nil
}

// updatePendingInsert folds an update into a not-yet-committed insert.
func (tx *Txn) updatePendingInsert(ins *insertOp, off int, data []byte) error {
	if tx.e.cfg.Update == OutOfPlace {
		copy(ins.data[off:off+len(data)], data)
		chargeDRAMCopy(tx.clk, tx.e.sys.Cost(), len(data))
		return nil
	}
	// In-place: append a follow-up update op on the same slot; replay order
	// preserves the final image.
	pos := tx.logAppendUpdate(ins.t, ins.slot, ins.key, off, data)
	if pos < 0 {
		return ErrTxnTooLarge
	}
	tx.writes = append(tx.writes, writeOp{
		t: ins.t, kind: wal.OpUpdate, slot: ins.slot, key: ins.key,
		off: off, n: len(data), logPos: pos,
	})
	return nil
}

// ---- log append helpers (in-place) ----
//
// Each helper attributes its window writes to the log-append phase before
// returning to the caller's phase.

func (tx *Txn) logAppendUpdate(t *Table, slot, key uint64, off int, data []byte) int {
	prev := tx.pt.To(obs.PhaseLogAppend)
	pos := tx.log.AppendUpdate(tx.clk, t.id, slot, key, off, data)
	tx.pt.To(prev)
	return pos
}

func (tx *Txn) logAppendInsert(t *Table, slot, key uint64, payload []byte) int {
	prev := tx.pt.To(obs.PhaseLogAppend)
	pos := tx.log.AppendInsert(tx.clk, t.id, slot, key, payload[:t.schema.TupleSize()])
	tx.pt.To(prev)
	return pos
}

func (tx *Txn) logAppendDelete(t *Table, slot, key uint64) int {
	prev := tx.pt.To(obs.PhaseLogAppend)
	pos := tx.log.AppendDelete(tx.clk, t.id, slot, key)
	tx.pt.To(prev)
	return pos
}

// ---- own-write bookkeeping ----

func (tx *Txn) findInsert(t *Table, key uint64) *insertOp {
	for i := range tx.inserts {
		ins := &tx.inserts[i]
		if ins.t == t && ins.key == key {
			return ins
		}
	}
	return nil
}

func (tx *Txn) ownsWrite(t *Table, slot uint64) bool {
	for i := range tx.locks {
		l := &tx.locks[i]
		if l.t == t && l.slot == slot && !l.shared {
			return true
		}
	}
	// OCC has no exec-time locks; check the write set.
	if tx.e.cfg.CC.Base() == cc.OCC {
		for i := range tx.writes {
			w := &tx.writes[i]
			if w.t == t && w.slot == slot {
				return true
			}
		}
		return tx.occMarked(t, slot)
	}
	return false
}

func (tx *Txn) holdsShared(t *Table, slot uint64) bool {
	for i := range tx.locks {
		l := &tx.locks[i]
		if l.t == t && l.slot == slot && l.shared {
			return true
		}
	}
	return false
}

func (tx *Txn) dropShared(t *Table, slot uint64) {
	for i := range tx.locks {
		l := &tx.locks[i]
		if l.t == t && l.slot == slot && l.shared {
			tx.locks = append(tx.locks[:i], tx.locks[i+1:]...)
			return
		}
	}
}

// occMarks tracks write intents under OCC before any op is buffered.
func (tx *Txn) writesMark(t *Table, key, slot uint64) {
	if !tx.occMarked(t, slot) {
		tx.occIntents = append(tx.occIntents, lockRef{t: t, slot: slot, key: key})
	}
}

func (tx *Txn) occMarked(t *Table, slot uint64) bool {
	for i := range tx.occIntents {
		m := &tx.occIntents[i]
		if m.t == t && m.slot == slot {
			return true
		}
	}
	return false
}

// overlayOwnWrites patches dst (payload range [off, off+n)) with this
// transaction's buffered updates to slot.
func (tx *Txn) overlayOwnWrites(t *Table, slot uint64, off, n int, dst []byte) {
	for i := range tx.writes {
		w := &tx.writes[i]
		if w.t != t || w.slot != slot || w.kind != wal.OpUpdate {
			continue
		}
		lo, hi := w.off, w.off+w.n
		if hi <= off || lo >= off+n {
			continue
		}
		data := w.data
		if tx.e.cfg.Update == InPlace {
			op, _ := tx.log.ReadOp(tx.clk, w.logPos)
			data = op.Data
		}
		s, d := 0, lo-off
		if d < 0 {
			s, d = -d, 0
		}
		end := hi
		if end > off+n {
			end = off + n
		}
		copy(dst[d:], data[s:s+(end-(lo+s))])
	}
}

// copyPending reads range [off, off+n) of a pending insert's payload.
func (tx *Txn) copyPending(t *Table, data []byte, logPos int, off, n int, dst []byte) {
	if tx.e.cfg.Update == OutOfPlace {
		copy(dst[:n], data[off:off+n])
		return
	}
	op, _ := tx.log.ReadOp(tx.clk, logPos)
	copy(dst[:n], op.Data[off:off+n])
}

func chargeDRAMCopy(clk *sim.Clock, cost sim.CostModel, n int) {
	lines := (n + 63) / 64
	if lines < 1 {
		lines = 1
	}
	clk.Advance(cost.DRAMFirstLine + uint64(lines-1)*cost.DRAMNextLine)
}

func leU64(b []byte) uint64 {
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}
