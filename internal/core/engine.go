package core

import (
	"errors"
	"fmt"
	"sync/atomic"

	"falcon/internal/alloc"
	"falcon/internal/cc"
	"falcon/internal/heap"
	"falcon/internal/index"
	"falcon/internal/layout"
	"falcon/internal/obs"
	"falcon/internal/pmem"
	"falcon/internal/sim"
	"falcon/internal/version"
	"falcon/internal/wal"
)

// catalogBase/catalogBytes fix the persistent catalog region right after the
// arena header; the catalog is the recovery entry point (§5.1).
const (
	catalogBase  = alloc.HeaderBytes
	catalogBytes = 256 << 10
	arenaStart   = catalogBase + catalogBytes
)

// Engine is one OLTP storage engine instance over a simulated memory system.
// The Config decides which of the paper's engines it behaves as.
type Engine struct {
	cfg   Config
	sys   *pmem.System
	nvm   pmem.Space
	arena *alloc.Arena

	dram     *pmem.DRAMSpace
	dramNext uint64 // bump allocator over dram

	tables []*Table
	byName map[string]*Table

	windowBase uint64
	markerBase uint64
	// epochBase is the 64 B line holding the durable group-commit epoch
	// marker; board coordinates durability epochs when GroupCommit is on
	// (nil otherwise — call sites pay one pointer test).
	epochBase uint64
	board     *wal.EpochBoard
	windows   []*wal.Window

	gen    cc.TIDGen
	active *cc.ActiveSet
	hot    []*hotSet
	tcache *tupleCache
	resv   *reservations

	// det is non-nil while the engine runs in deterministic group mode
	// (EnterGroup/LeaveGroup, det.go): workers execute in parallel against
	// round-frozen shared state and merge at virtual-time barriers.
	det *detState

	clocks  []*sim.Clock
	scratch []workerScratch

	commits atomic.Uint64
	aborts  atomic.Uint64

	// phases holds the per-worker commit-path phase accumulators (same
	// single-owner contract as clocks); abortReasons is the cross-worker
	// abort taxonomy; reg is the unified stats registry over all of it.
	phases       []obs.PhaseSet
	abortReasons obs.AbortCounts
	reg          *obs.Registry
	// tstats holds per-worker × per-table activity counters (single-owner
	// rows, summed by the "tables" collector at snapshot time).
	tstats [][]paddedTableStats
	// probes holds each worker's instrumentation handle while a tracer or
	// the contention observatory is armed (Arm); observatory is the armed
	// observatory. Both are nil in the common unarmed case, so the
	// instrumented sites pay only nil pointer tests.
	probes      []obs.Probe
	observatory *obs.Observatory
	// recPhases holds the recovery-path phase accounting when this engine
	// was produced by Recover (nil for freshly created engines).
	recPhases *obs.PhaseSet
	// validateHits makes index lookups verify the tuple's key column and
	// treat mismatches as misses. Recover enables it for NVM-index engines
	// restarted under ADR: index mutations travel through the volatile
	// cache, so the media can retain an entry whose delete was lost and
	// whose slot has since been recycled by another row — following it
	// blindly would serve that row's tuple under the wrong key.
	validateHits bool
}

// workerScratch is a worker's reusable state — a payload buffer and the
// Txn that Engine.run recycles — padded against false sharing.
type workerScratch struct {
	buf   []byte
	spare *Txn
	_     [4]uint64
}

// Table is one relation: a tuple heap plus its indexes and (for MVCC) the
// DRAM version store.
type Table struct {
	e            *Engine
	id           uint8
	name         string
	schema       *layout.Schema
	keyCol       int
	secondaryCol int
	capacity     uint64

	heap      *heap.Heap
	primary   index.Index
	secondary index.Index
	versions  *version.Store

	heapBase, priBase, secBase uint64
	indexKind                  index.Kind
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the tuple layout.
func (t *Table) Schema() *layout.Schema { return t.schema }

// Heap exposes the underlying tuple heap (diagnostics and tests).
func (t *Table) Heap() *heap.Heap { return t.heap }

// ErrTableFull is returned when a table cannot hold more tuples.
var ErrTableFull = errors.New("core: table full")

// New creates an engine with the given tables on a fresh memory system.
func New(sys *pmem.System, cfg Config, specs []TableSpec) (*Engine, error) {
	cfg = cfg.withDefaults()
	e := &Engine{
		cfg:    cfg,
		sys:    sys,
		nvm:    sys.Space,
		byName: make(map[string]*Table, len(specs)),
		active: cc.NewActiveSet(cfg.Threads),
		resv:   newReservations(sys.Cost()),
	}
	var err error
	e.arena, err = NewEngineArena(sys)
	if err != nil {
		return nil, err
	}
	e.initWorkers()

	clk := sim.NewClock() // setup costs are not attributed to workers
	// Per-thread log windows (in-place engines) and commit markers
	// (out-of-place engines) are allocated for every engine so the layout is
	// uniform.
	winBytes := wal.BytesNeeded(cfg.Window)
	e.windowBase, err = e.arena.Alloc(clk, winBytes*uint64(cfg.Threads), 64)
	if err != nil {
		return nil, err
	}
	e.markerBase, err = e.arena.Alloc(clk, 64*uint64(cfg.Threads), 64)
	if err != nil {
		return nil, err
	}
	e.epochBase, err = e.arena.Alloc(clk, 64, 64)
	if err != nil {
		return nil, err
	}
	var zero [8]byte
	e.nvm.BulkWrite(e.epochBase, zero[:])
	e.windows = make([]*wal.Window, cfg.Threads)
	for t := 0; t < cfg.Threads; t++ {
		e.windows[t] = wal.NewWindow(e.nvm, e.windowBase+uint64(t)*winBytes, cfg.Window)
		e.nvm.BulkWrite(e.markerBase+64*uint64(t), zero[:])
	}
	e.initGroupCommit()

	for _, spec := range specs {
		if _, err := e.createTable(clk, spec); err != nil {
			return nil, fmt.Errorf("core: table %q: %w", spec.Name, err)
		}
	}
	if err := e.writeCatalog(clk); err != nil {
		return nil, err
	}
	return e, nil
}

// initGroupCommit attaches the group-commit epoch board to every window
// (no-op unless the configuration enables group commit). Shared by the
// create and recovery paths; the durable marker at epochBase must already be
// zeroed.
func (e *Engine) initGroupCommit() {
	if !e.cfg.GroupCommit {
		return
	}
	e.board = wal.NewEpochBoard(e.nvm, e.epochBase, e.cfg.GroupEpochNanos)
	for _, w := range e.windows {
		w.SetBoard(e.board)
	}
}

// Board returns the group-commit epoch board, or nil when group commit is
// off (diagnostics and tests).
func (e *Engine) Board() *wal.EpochBoard { return e.board }

// NewEngineArena formats the engine's space arena (header + catalog region
// reserved).
func NewEngineArena(sys *pmem.System) (*alloc.Arena, error) {
	return alloc.NewArena(sys.Space, 0, arenaStart, sys.Space.Size())
}

func (e *Engine) initWorkers() {
	e.clocks = make([]*sim.Clock, e.cfg.Threads)
	e.hot = make([]*hotSet, e.cfg.Threads)
	e.scratch = make([]workerScratch, e.cfg.Threads)
	e.phases = make([]obs.PhaseSet, e.cfg.Threads)
	e.tstats = make([][]paddedTableStats, e.cfg.Threads)
	for i := range e.clocks {
		// Worker clocks carry the worker id as a shard hint so the pmem
		// layer can route each worker's event counters to its own shard.
		e.clocks[i] = sim.NewWorkerClock(i)
		e.hot[i] = newHotSet(e.cfg.HotTupleCap, e.sys.Cost())
	}
	e.initObs()
}

// initObs wires the unified stats registry. Collectors read the engine's
// live structures at snapshot time, so registration order and later window
// creation don't matter. Single-owner sources (phase sets, windows, hot
// sets) are coherent only while workers are quiescent — see obs.Registry.
func (e *Engine) initObs() {
	e.reg = obs.NewRegistry()
	e.reg.Register("engine", func(s *obs.Snapshot) {
		s.Commits += e.commits.Load()
		s.Aborts += e.aborts.Load()
		for i := range e.phases {
			e.phases[i].AddTo(&s.PhaseNanos)
		}
		reasons := e.abortReasons.Snapshot()
		for i, n := range reasons {
			s.AbortCounts[i] += n
		}
	})
	e.reg.Register("wal", func(s *obs.Snapshot) {
		for _, w := range e.windows {
			s.WAL.Add(w.Stats())
		}
	})
	e.reg.Register("group-commit", func(s *obs.Snapshot) {
		if e.board != nil {
			s.Epochs.Add(e.board.Stats())
		}
	})
	e.reg.Register("hot-set", func(s *obs.Snapshot) {
		for _, h := range e.hot {
			s.Hot.Add(h.stats)
		}
	})
	e.reg.Register("pmem", func(s *obs.Snapshot) {
		s.Mem = e.sys.Dev.Stats().Snapshot()
	})
	e.reg.Register("recovery", func(s *obs.Snapshot) {
		if e.recPhases != nil {
			e.recPhases.AddTo(&s.PhaseNanos)
		}
	})
	e.reg.Register("contend", func(s *obs.Snapshot) {
		if e.observatory != nil {
			s.Contend = e.observatory.Report()
		}
	})
	e.reg.Register("tables", func(s *obs.Snapshot) {
		if len(e.tables) == 0 {
			return
		}
		if s.Tables == nil {
			s.Tables = make(map[string]obs.TableStats, len(e.tables))
		}
		for _, t := range e.tables {
			agg := s.Tables[t.name]
			for w := range e.tstats {
				agg.Add(e.tstats[w][t.id].TableStats)
			}
			s.Tables[t.name] = agg
		}
	})
}

// paddedTableStats keeps one worker's counters for one table on a cache
// line of its own. TableStats is 32 B, so unpadded rows from different
// workers share lines and the per-op increments turn into cross-core
// traffic (measured ~40% on the host YCSB cell when this shipped unpadded).
type paddedTableStats struct {
	obs.TableStats
	_ [4]uint64
}

// addTable registers a fully built table with the engine, growing every
// worker's per-table counter row (both the create and the recovery path
// construct tables through here).
func (e *Engine) addTable(t *Table) {
	e.tables = append(e.tables, t)
	e.byName[t.name] = t
	for w := range e.tstats {
		e.tstats[w] = append(e.tstats[w], paddedTableStats{})
	}
}

// Arm attaches the instrumentation consumers: tr captures transaction-level
// traces (worker w's events route to tr.Worker(w)) and o attributes
// contention and flush traffic (worker w's events route to o.Worker(w)).
// Either may be nil; Arm(nil, nil) disarms both. Every worker's transactions
// and log window get one probe holding both, and the pmem system one hook
// feeding both. Must be called while no transactions are in flight (between
// benchmark phases) — the same quiescence contract as ResetCounters.
func (e *Engine) Arm(tr *obs.Tracer, o *obs.Observatory) {
	e.probes, e.observatory = nil, o
	if tr != nil || o != nil {
		e.probes = make([]obs.Probe, e.cfg.Threads)
	}
	for i, w := range e.windows {
		p := obs.Probe{WorkerTracer: tr.Worker(i), ContendShard: o.Worker(i)}
		if e.probes != nil {
			e.probes[i] = p
		}
		w.SetProbe(p)
	}
	e.sys.SetHook(obs.PmemHook(tr, o))
}

// LogWindowRange returns the NVM address range [base, base+size) holding all
// threads' log windows — the region fault plans target for corruption
// injection (the durability chain's checksummed section).
func (e *Engine) LogWindowRange() (base, size uint64) {
	return e.windowBase, wal.BytesNeeded(e.cfg.Window) * uint64(e.cfg.Threads)
}

// scratchFor returns worker's reusable buffer of at least n bytes. Callers
// must finish with it before the next engine call on the same worker.
func (e *Engine) scratchFor(worker, n int) []byte {
	s := &e.scratch[worker]
	if cap(s.buf) < n {
		s.buf = make([]byte, n)
	}
	return s.buf[:n]
}

// dramAlloc carves a region out of the engine's DRAM space, creating it on
// first use.
func (e *Engine) dramAlloc(n uint64) (uint64, error) {
	if e.dram == nil {
		e.dram = pmem.NewDRAMSpace(e.cfg.DRAMBytes, e.sys.Cost())
	}
	off := (e.dramNext + 63) &^ 63
	if off+n > e.dram.Size() {
		return 0, fmt.Errorf("core: DRAM space exhausted (need %d at %d)", n, off)
	}
	e.dramNext = off + n
	return off, nil
}

func (e *Engine) createTable(clk *sim.Clock, spec TableSpec) (*Table, error) {
	if len(e.tables) >= 250 {
		return nil, errors.New("core: too many tables")
	}
	if spec.Schema == nil || spec.Capacity == 0 {
		return nil, errors.New("core: table spec needs schema and capacity")
	}
	if spec.KeyCol < 0 || spec.KeyCol >= spec.Schema.NumColumns() {
		return nil, errors.New("core: bad key column")
	}
	t := &Table{
		e:            e,
		id:           uint8(len(e.tables)),
		name:         spec.Name,
		schema:       spec.Schema,
		keyCol:       spec.KeyCol,
		secondaryCol: spec.SecondaryCol,
		capacity:     spec.Capacity,
		indexKind:    spec.IndexKind,
	}
	slots := spec.Capacity
	if e.cfg.Update == OutOfPlace {
		slots *= uint64(e.cfg.VersionHeadroom)
		// Hot tiny tables (TPC-C warehouse/district) churn versions far
		// faster than proportional headroom suggests; guarantee a working
		// set of stale versions per thread.
		if min := uint64(e.cfg.Threads) * 128; slots < min {
			slots = min
		}
	}
	hcfg := heap.Config{SlotSize: spec.Schema.TupleSize(), NSlots: slots, NThreads: e.cfg.Threads}
	var err error
	t.heapBase, err = e.arena.Alloc(clk, heap.BytesNeeded(hcfg), 64)
	if err != nil {
		return nil, err
	}
	t.heap, err = heap.New(e.nvm, t.heapBase, hcfg)
	if err != nil {
		return nil, err
	}

	// Index capacity covers live tuples only (in-place) since stale
	// versions are removed from the index at update time.
	idxCap := spec.Capacity * 11 / 10
	t.primary, t.priBase, err = e.buildIndex(clk, spec.IndexKind, idxCap)
	if err != nil {
		return nil, err
	}
	if t.secondaryCol > 0 {
		t.secondary, t.secBase, err = e.buildIndex(clk, index.BTree, idxCap)
		if err != nil {
			return nil, err
		}
	}

	if e.cfg.CC.MultiVersion() {
		t.versions = version.NewStore(t.heap.NSlots(), e.cfg.Threads, e.sys.Cost())
	}
	if e.cfg.TupleCacheBytes > 0 {
		e.ensureTupleCache(spec.Schema.TupleSize())
	}

	e.addTable(t)
	return t, nil
}

func (e *Engine) ensureTupleCache(slotBytes int) {
	if e.tcache == nil || e.tcache.slotBytes < slotBytes {
		e.tcache = newTupleCache(e.cfg.TupleCacheBytes, slotBytes, e.sys.Cost())
	}
}

// buildIndex places an index on NVM or DRAM per the configuration.
func (e *Engine) buildIndex(clk *sim.Clock, kind index.Kind, capacity uint64) (index.Index, uint64, error) {
	var bytes uint64
	if kind == index.Hash {
		bytes = index.HashBytes(capacity)
	} else {
		bytes = index.BTreeBytes(capacity)
	}
	if e.cfg.Index == IndexDRAM {
		off, err := e.dramAlloc(bytes)
		if err != nil {
			return nil, 0, err
		}
		idx, err := e.newIndexOn(e.dram, off, kind, capacity)
		return idx, off, err
	}
	off, err := e.arena.Alloc(clk, bytes, 64)
	if err != nil {
		return nil, 0, err
	}
	idx, err := e.newIndexOn(e.nvm, off, kind, capacity)
	return idx, off, err
}

func (e *Engine) newIndexOn(space pmem.Space, off uint64, kind index.Kind, capacity uint64) (index.Index, error) {
	if kind == index.Hash {
		return index.NewHash(space, off, capacity)
	}
	return index.NewBTree(space, off, capacity)
}

// Table returns a table by name.
func (e *Engine) Table(name string) *Table { return e.byName[name] }

// Tables returns all tables in id order.
func (e *Engine) Tables() []*Table { return e.tables }

// Config returns the engine configuration (with defaults applied).
func (e *Engine) Config() Config { return e.cfg }

// System returns the underlying simulated memory system.
func (e *Engine) System() *pmem.System { return e.sys }

// Clock returns worker w's virtual clock.
func (e *Engine) Clock(worker int) *sim.Clock { return e.clocks[worker] }

// Clocks returns all worker clocks (throughput accounting).
func (e *Engine) Clocks() []*sim.Clock { return e.clocks }

// ResetClocks rewinds all worker clocks (between benchmark phases).
func (e *Engine) ResetClocks() {
	if d := e.det; d != nil {
		// Group-mode TID sequences are base + virtual nanos; rewinding the
		// clocks would reissue past sequences, so lift the base above every
		// sequence drawn so far first.
		var maxSeq uint64
		for _, s := range d.lastSeq {
			if s > maxSeq {
				maxSeq = s
			}
		}
		d.base = maxSeq + 1
		d.min = d.base << 8
	}
	for _, c := range e.clocks {
		c.Reset()
	}
}

// Commits returns the number of committed transactions.
func (e *Engine) Commits() uint64 { return e.commits.Load() }

// Aborts returns the number of aborted transaction attempts.
func (e *Engine) Aborts() uint64 { return e.aborts.Load() }

// ResetCounters zeroes every engine-owned observability counter: commits,
// aborts, the abort-reason taxonomy, the per-worker phase accumulators, the
// WAL window gauges, and the hot-set counters. It must only run while no
// transactions are in flight (between benchmark phases).
//
// The pmem.Stats hardware counters are deliberately NOT reset here: they
// belong to the shared simulated device (Engine.System().Dev), which can
// outlive this engine and carries cache/XPBuffer state across phases —
// warmup-dirtied lines may write back during measurement, and zeroing the
// counters mid-stream would leave other holders of the same System with a
// corrupt baseline. Warmup exclusion for hardware events therefore diffs two
// point-in-time copies via pmem.Snapshot.Sub (see bench.Run and
// obs.Snapshot.Sub).
func (e *Engine) ResetCounters() {
	e.commits.Store(0)
	e.aborts.Store(0)
	e.abortReasons.Reset()
	for i := range e.phases {
		e.phases[i].Reset()
	}
	for _, w := range e.windows {
		w.ResetStats()
	}
	for _, h := range e.hot {
		h.stats = obs.HotSetStats{}
	}
	if e.board != nil {
		e.board.ResetStats()
	}
	for w := range e.tstats {
		for i := range e.tstats[w] {
			e.tstats[w][i] = paddedTableStats{}
		}
	}
}

// Obs returns the engine's unified stats registry.
func (e *Engine) Obs() *obs.Registry { return e.reg }

// ObsSnapshot assembles one observability snapshot (engine counters, phase
// accounting, abort taxonomy, WAL/hot-set gauges, pmem hardware counters).
// Workers must be quiescent.
func (e *Engine) ObsSnapshot() obs.Snapshot { return e.reg.Snapshot() }

// AbortReasons returns the per-reason abort counters; they sum to Aborts().
func (e *Engine) AbortReasons() [obs.NumAbortReasons]uint64 {
	return e.abortReasons.Snapshot()
}

// MinActive returns the oldest running TID (MaxUint64 when idle); exported
// for tests exercising GC behaviour.
func (e *Engine) MinActive() uint64 { return e.active.Min() }

// Sync flushes all dirty simulated state to the media (clean shutdown).
// With group commit on, every open durability epoch seals first so no
// published record is left behind its durable point.
func (e *Engine) Sync(clk *sim.Clock) {
	if e.board != nil {
		e.board.SealAll(clk, nil)
	}
	e.sys.Sync(clk)
}

// BulkIndexInsert installs an index entry during initial data load, charging
// no worker clock (pass nil clocks through; sim.Clock methods are nil-safe).
func (t *Table) BulkIndexInsert(key, slot uint64) error {
	if err := t.primary.Insert(nil, key, slot); err != nil {
		return fmt.Errorf("primary %v: %w", t.primary.Kind(), err)
	}
	if t.secondary != nil {
		sec := t.heap.ReadRangeU64(nil, slot, t.schema.Offset(t.secondaryCol))
		if err := t.secondary.Insert(nil, sec, slot); err != nil {
			return fmt.Errorf("secondary key %#x: %w", sec, err)
		}
	}
	return nil
}
