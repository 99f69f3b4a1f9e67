package core

import (
	"sync/atomic"

	"falcon/internal/cc"
	"falcon/internal/obs"
	"falcon/internal/sim"
	"falcon/internal/wal"
)

// Deterministic worker-parallel mode (the sim.Group scheduler, see
// internal/sim/group.go for the round model).
//
// In normal (free-running) mode, multi-worker cells are only repeatable under
// a fixed host schedule: workers race on the shared simulated cache, the CC
// shadow words, the tuple cache, and the TID generator, so virtual results
// depend on goroutine interleaving. Group mode removes every such race by
// construction:
//
//   - TIDs derive from virtual time: tid = (base + clk.Nanos()) << 8 | worker,
//     with a per-worker monotonic bump. Canonical merge order (ascending tid)
//     is therefore (virtual time, worker id) order.
//   - During a round, every access a transaction makes against shared state is
//     a pure read of round-frozen state. CC lock/read-timestamp words are
//     copied on first touch into a private overlay (Txn.metaFor); all six CC
//     algorithms run unchanged against the overlay. Live words are never
//     mutated mid-round.
//   - The commit is split: the head (log-capacity check, OCC validation over
//     the overlay) runs worker-side; the tail — version publish, log commit,
//     heap apply, index updates, flushes, lock release — runs inside the round
//     barrier, serially, in canonical order (detReplay).
//   - The barrier revalidates each attempt against what earlier-ordered
//     winners of the same round committed, using virtual-time windows: a read
//     at virtual time v conflicts with an earlier winner's write to the same
//     slot committed at time c iff v > c (the read should have seen it); a
//     write intent taken at v conflicts iff v < lastC (concurrent writers,
//     no-wait) or the slot changed structurally (delete / out-of-place
//     supersede); an insert conflicts on a duplicate key; a scan conflicts
//     with any structural change to its table committed before the scan's
//     virtual time. Conflicts abort exactly as in free-running mode (the
//     abort is charged, the transaction retries next round), preserving the
//     abort-retry cost model.
//
// Group mode is a *different simulated machine* than free-running mode
// (partitioned timing caches, round-frozen conflict windows), so its virtual
// numbers differ from legacy runs; within group mode they are byte-identical
// for any GOMAXPROCS and any host schedule.

// detSlot identifies a heap slot across tables.
type detSlot struct {
	table uint8
	slot  uint64
}

// detKey identifies a primary key across tables.
type detKey struct {
	table uint8
	key   uint64
}

// detWin is the virtual-time window of commits an earlier-ordered winner
// applied to one slot during the current round.
type detWin struct {
	firstC, lastC uint64
	// structural marks deletes and out-of-place supersedes: the slot was
	// retired, so any later write intent on it must abort (its apply would
	// target a recycled slot).
	structural bool
}

// detState is the engine's group-mode state. It is created quiescently by
// EnterGroup; during rounds workers only read it (min, tc routing), and the
// round maps are touched exclusively inside the barrier.
type detState struct {
	group   *sim.Group
	workers int
	// min is the frozen reclaim horizon used by exec-time heap allocation in
	// place of ActiveSet.Min (whose value depends on the host schedule
	// mid-round). It is a lower bound on every TID active in the current
	// round, refreshed at each barrier from the round's smallest submitted
	// TID (per-worker TIDs are strictly monotone, so the next round's minimum
	// can only be larger).
	min uint64
	// base offsets virtual-time TID sequences so they stay monotone across
	// clock resets; lastSeq enforces per-worker strict monotonicity.
	base    uint64
	lastSeq []uint64
	// tc holds the per-worker tuple caches replacing the shared ZenS cache
	// (nil when the config has no tuple cache).
	tc []*tupleCache
	// Round-scoped replay state (barrier-only).
	wrote   map[detSlot]*detWin
	insKeys map[detKey]struct{}
	tmods   map[uint8]uint64 // table id -> earliest structural-change vtime
}

// ovEntry is a private copy of one slot's CC metadata (lock word + read
// timestamp), initialized from the round-frozen live words on first touch.
type ovEntry struct {
	lock   atomic.Uint64
	readTS atomic.Uint64
}

// detTxn is the per-transaction group-mode state.
type detTxn struct {
	ov      map[detSlot]*ovEntry
	scanVts map[uint8]uint64 // table id -> latest scan vtime (phantom check)
	// submitted marks that this transaction already occupied a round (its
	// attempt reached the barrier), so a retry must not submit a second
	// placeholder for the same round.
	submitted bool
	// tailErr carries a barrier-side commit-tail failure (e.g. table full)
	// back to the parked worker.
	tailErr error
}

// EnterGroup switches the engine into deterministic worker-parallel mode.
// The caller must be quiescent (no transactions in flight). The pmem system
// and any DRAM spaces switch to per-worker timing partitions; the shared
// tuple cache is cleared and replaced by per-worker caches.
func (e *Engine) EnterGroup() {
	if e.det != nil {
		return
	}
	n := e.cfg.Threads
	d := &detState{
		workers: n,
		lastSeq: make([]uint64, n),
		wrote:   make(map[detSlot]*detWin),
		insKeys: make(map[detKey]struct{}),
		tmods:   make(map[uint8]uint64),
	}
	d.base = e.gen.Seq() + 1
	d.min = d.base << 8
	d.group = sim.NewGroup(e.detReplay)
	e.sys.EnterGroup(n)
	if e.dram != nil {
		e.dram.EnterGroup(n, 2<<20, 16, e.sys.Cost())
	}
	if e.board != nil {
		// Worker-side epoch sealing would mutate the board outside the round
		// barrier; defer all seals to the commit tails (SealExpired), which
		// replay serially in canonical order.
		e.board.EnterGroup()
	}
	if e.tcache != nil {
		// Entries cached before (or put after) group mode would go stale
		// against group-mode commits, which bypass the shared cache.
		e.tcache.clear()
		d.tc = make([]*tupleCache, n)
		for w := range d.tc {
			d.tc[w] = newTupleCache(e.cfg.TupleCacheBytes/n, e.tcache.slotBytes, e.sys.Cost())
		}
	}
	e.det = d
}

// LeaveGroup returns the engine to free-running mode, fast-forwarding the
// shared TID generator past every virtual-time TID issued in group mode.
func (e *Engine) LeaveGroup() {
	d := e.det
	if d == nil {
		return
	}
	var maxSeq uint64
	for _, s := range d.lastSeq {
		if s > maxSeq {
			maxSeq = s
		}
	}
	e.gen.Restore(maxSeq<<8 | 0xFF)
	e.sys.LeaveGroup()
	if e.dram != nil {
		e.dram.LeaveGroup()
	}
	if e.board != nil {
		e.board.LeaveGroup()
	}
	e.det = nil
}

// InGroup reports whether deterministic worker-parallel mode is active.
func (e *Engine) InGroup() bool { return e.det != nil }

// Group returns the round scheduler while in group mode (nil otherwise).
// Benchmark drivers call Group().Begin(n) at phase start and Group().Leave()
// when a worker retires.
func (e *Engine) Group() *sim.Group {
	if e.det == nil {
		return nil
	}
	return e.det.group
}

// detTID issues worker's next virtual-time TID.
func (e *Engine) detTID(worker int, clk *sim.Clock) uint64 {
	d := e.det
	seq := d.base + clk.Nanos()
	if seq <= d.lastSeq[worker] {
		seq = d.lastSeq[worker] + 1
	}
	d.lastSeq[worker] = seq
	return seq<<8 | uint64(worker&0xFF)
}

// minActive is the reclaim horizon for heap allocation: the live ActiveSet
// minimum in free-running mode, the frozen round horizon in group mode.
func (e *Engine) minActive() uint64 {
	if d := e.det; d != nil {
		return d.min
	}
	return e.active.Min()
}

// metaFor returns the CC metadata words for a slot: the live heap words in
// free-running mode, the transaction-private overlay in group mode. Overlay
// entries copy the round-frozen live words on first touch; the overlay is
// discarded with the transaction, and the commit tail writes final words back
// to the live slots (releaseLocksCommitted).
func (tx *Txn) metaFor(t *Table, slot uint64) (lock, readTS *atomic.Uint64) {
	dt := tx.dt
	if dt == nil {
		return t.heap.Meta(slot)
	}
	k := detSlot{t.id, slot}
	ov := dt.ov[k]
	if ov == nil {
		ll, lr := t.heap.Meta(slot)
		ov = &ovEntry{}
		ov.lock.Store(ll.Load())
		ov.readTS.Store(lr.Load())
		dt.ov[k] = ov
	}
	return &ov.lock, &ov.readTS
}

// detRecordRead records a non-OCC read for barrier validation (OCC reads are
// already recorded, with their vtime, for its own validation).
func (tx *Txn) detRecordRead(t *Table, slot, key uint64) {
	if tx.dt == nil {
		return
	}
	tx.reads = append(tx.reads, readRef{t: t, slot: slot, key: key, vt: tx.clk.Nanos()})
}

// detRecordScan records a table scan's completion vtime (phantom check).
func (tx *Txn) detRecordScan(t *Table) {
	if tx.dt == nil {
		return
	}
	if tx.dt.scanVts == nil {
		tx.dt.scanVts = make(map[uint8]uint64, 2)
	}
	if v := tx.clk.Nanos(); v > tx.dt.scanVts[t.id] {
		tx.dt.scanVts[t.id] = v
	}
}

// reserveKey claims an insert key latch. Group mode skips the shared latch
// table (duplicate inserts within a round are caught at the barrier) but
// charges the same probe cost.
func (tx *Txn) reserveKey(t *Table, key uint64) bool {
	if tx.dt != nil {
		tx.clk.Advance(tx.e.sys.Cost().DRAMFirstLine)
		return true
	}
	return tx.e.resv.tryReserve(tx.clk, t.id, key)
}

// releaseKey frees an insert key latch (no-op cost-charge in group mode).
func (tx *Txn) releaseKey(t *Table, key uint64) {
	if tx.dt != nil {
		tx.clk.Advance(tx.e.sys.Cost().DRAMFirstLine)
		return
	}
	tx.e.resv.release(tx.clk, t.id, key)
}

// tupleCache resolves the tuple cache serving this transaction's reads: the
// worker-private cache in group mode, the shared one otherwise.
func (tx *Txn) tupleCache() *tupleCache {
	if d := tx.e.det; d != nil {
		if d.tc == nil {
			return nil
		}
		return d.tc[tx.worker]
	}
	return tx.e.tcache
}

// tcPut installs a committed payload in the tuple cache. In group mode the
// committing worker's cache takes the payload and every other worker's cache
// drops the key — their entries would otherwise serve the superseded tuple.
func (e *Engine) tcPut(clk *sim.Clock, worker int, table uint8, key uint64, payload []byte) {
	if d := e.det; d != nil {
		if d.tc == nil {
			return
		}
		for w, c := range d.tc {
			if w == worker {
				c.put(clk, table, key, payload)
			} else {
				c.invalidate(clk, table, key)
			}
		}
		return
	}
	if e.tcache != nil {
		e.tcache.put(clk, table, key, payload)
	}
}

// tcInvalidate drops a key from the tuple cache (all workers' caches in
// group mode).
func (e *Engine) tcInvalidate(clk *sim.Clock, table uint8, key uint64) {
	if d := e.det; d != nil {
		for _, c := range d.tc {
			c.invalidate(clk, table, key)
		}
		return
	}
	if e.tcache != nil {
		e.tcache.invalidate(clk, table, key)
	}
}

// commitDet is the group-mode Commit: run the worker-side head (private-safe
// checks and overlay validation locking), then submit the transaction as this
// round's attempt and park until the barrier has replayed it.
func (tx *Txn) commitDet() error {
	if !tx.ro && (len(tx.writes) > 0 || len(tx.inserts) > 0) {
		if err := tx.commitHead(); err != nil {
			return err
		}
	}
	att := &sim.Attempt{Order: tx.tid, Data: tx}
	tx.dt.submitted = true
	tx.e.det.group.Submit(att)
	if att.OK {
		return nil
	}
	if err := tx.dt.tailErr; err != nil && err != ErrConflict {
		return err
	}
	return ErrConflict
}

// detReplay is the round barrier: it runs on the last-arriving worker with
// every other worker parked, applying attempts in canonical (virtual time,
// worker) order. See the package comment at the top of this file.
func (e *Engine) detReplay(atts []*sim.Attempt) {
	d := e.det
	e.observatory.BarrierTick()
	for k := range d.wrote {
		delete(d.wrote, k)
	}
	for k := range d.insKeys {
		delete(d.insKeys, k)
	}
	for k := range d.tmods {
		delete(d.tmods, k)
	}
	minTid, maxTid := ^uint64(0), uint64(0)
	for _, a := range atts {
		if a.Order < minTid {
			minTid = a.Order
		}
		if a.Order > maxTid {
			maxTid = a.Order
		}
	}
	// Horizon TIDs drawn inside the tail (delete reclaim stamps) must exceed
	// every TID of the round; the replay is serial, so gen is deterministic.
	e.gen.Restore(maxTid)
	for _, a := range atts {
		if a.Data == nil {
			continue // exec-aborted placeholder: only waited out the round
		}
		tx := a.Data.(*Txn)
		// Read timestamps advance for every attempt, committed or not, as
		// they do at read time in free-running TO (max is commutative, so
		// merge order is irrelevant).
		tx.detMergeReadTS()
		if reason, ok := d.validate(tx); !ok {
			tx.setAbortCause(reason)
			tx.Abort()
			continue // a.OK stays false
		}
		if err := tx.commitTail(); err != nil {
			tx.dt.tailErr = err
			tx.classifyAbort(err)
			tx.Abort()
			continue
		}
		d.noteCommitted(tx)
		a.OK = true
	}
	if len(atts) > 0 {
		d.min = minTid
	}
}

// validate checks one attempt against what earlier-ordered winners of this
// round committed (virtual-time window rules; see the file comment).
func (d *detState) validate(tx *Txn) (obs.AbortReason, bool) {
	reason := obs.AbortLockConflict
	if tx.e.cfg.CC.Base() == cc.OCC {
		reason = obs.AbortValidation
	}
	if tx.dt.scanVts != nil {
		for tab, svt := range tx.dt.scanVts {
			if first, ok := d.tmods[tab]; ok && svt > first {
				tx.noteConflict(tx.e.tables[tab], 0, 0, 0, obs.ConflictDetBarrier)
				return reason, false
			}
		}
	}
	for i := range tx.reads {
		r := &tx.reads[i]
		if w, ok := d.wrote[detSlot{r.t.id, r.slot}]; ok && r.vt > w.firstC {
			tx.noteConflict(r.t, r.key, r.slot, 0, obs.ConflictDetBarrier)
			return reason, false
		}
	}
	for i := range tx.locks {
		l := &tx.locks[i]
		if l.shared {
			continue
		}
		if w, ok := d.wrote[detSlot{l.t.id, l.slot}]; ok && (w.structural || l.vt < w.lastC) {
			tx.noteConflict(l.t, l.key, l.slot, 0, obs.ConflictDetBarrier)
			return reason, false
		}
	}
	for i := range tx.inserts {
		ins := &tx.inserts[i]
		if _, dup := d.insKeys[detKey{ins.t.id, ins.key}]; dup {
			tx.noteConflict(ins.t, ins.key, ins.slot, 0, obs.ConflictDetBarrier)
			return reason, false
		}
	}
	return 0, true
}

// noteCommitted folds a winner's effects into the round's conflict windows.
func (d *detState) noteCommitted(tx *Txn) {
	cvt := tx.clk.Nanos()
	outp := tx.e.cfg.Update == OutOfPlace
	for i := range tx.writes {
		w := &tx.writes[i]
		k := detSlot{w.t.id, w.slot}
		win := d.wrote[k]
		if win == nil {
			win = &detWin{firstC: cvt, lastC: cvt}
			d.wrote[k] = win
		}
		if cvt < win.firstC {
			win.firstC = cvt
		}
		if cvt > win.lastC {
			win.lastC = cvt
		}
		if outp || w.kind == wal.OpDelete {
			win.structural = true
		}
		if w.kind == wal.OpDelete {
			if f, ok := d.tmods[w.t.id]; !ok || cvt < f {
				d.tmods[w.t.id] = cvt
			}
		}
	}
	for i := range tx.inserts {
		ins := &tx.inserts[i]
		d.insKeys[detKey{ins.t.id, ins.key}] = struct{}{}
		if f, ok := d.tmods[ins.t.id]; !ok || cvt < f {
			d.tmods[ins.t.id] = cvt
		}
	}
}

// detMergeReadTS applies the transaction's overlay read-timestamp advances to
// the live words (TO-family only: the other algorithms never read them).
func (tx *Txn) detMergeReadTS() {
	if tx.e.cfg.CC.Base() != cc.TO {
		return
	}
	for i := range tx.reads {
		r := &tx.reads[i]
		_, rts := r.t.heap.Meta(r.slot)
		cc.MaxTS(rts, tx.tid)
	}
}

// commitTail is the shared-state half of Commit, run inside the barrier.
func (tx *Txn) commitTail() error {
	if tx.ro || (len(tx.writes) == 0 && len(tx.inserts) == 0) {
		tx.pt.To(obs.PhaseCC)
		tx.releaseLocksKeep()
		tx.finish(true)
		return nil
	}
	if tx.e.cfg.Update == OutOfPlace {
		return tx.commitOutOfPlaceTail()
	}
	tx.commitInPlaceTail()
	return nil
}
