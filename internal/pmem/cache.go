package pmem

import "falcon/internal/sim"

// backend is the memory level beneath a Cache: the XPBuffer+media stack for
// NVM, or a flat DRAM array for volatile spaces. Write-backs and fills charge
// the backend's own latencies.
type backend interface {
	// writeBackLine accepts one dirty 64 B line written back from the cache.
	writeBackLine(clk *sim.Clock, lineAddr uint64, data *[LineSize]byte)
	// fillLine reads the current content of one 64 B line into dst.
	fillLine(clk *sim.Clock, lineAddr uint64, dst *[LineSize]byte)
	// drain propagates any buffered state to its durable/home location.
	drain(clk *sim.Clock)
}

// Cache is a functional set-associative CPU cache in front of a memory
// backend. Dirty lines hold the authoritative copy of their data: the
// backend only sees a line when it is written back by replacement, by CLWB,
// or by the eADR crash flush. This makes persistence behaviour — the entire
// subject of the paper — directly observable in tests.
//
// The store/load line paths are the hottest host-side code in the whole
// simulation (every simulated memory access funnels through them), so they
// are written lock-lean: a bare tag compare on the hit path with the victim
// walk deferred to misses, explicit unlocks instead of defer, hit counts
// batched per Load/Store call, and per-worker stats shards instead of shared
// counters.
//
// Per-way state lives in flat set-major arrays: way w of set s is index
// s*ways+w of addrs, lru, dirty and data. The hit scan reads only addrs —
// 8 B per way, so a 16-way set's tags span two host cache lines — and an
// invalid way holds invalidAddr, so the scan needs no separate state test.
type Cache struct {
	mode  Mode
	ways  int
	nsets uint64
	limit uint64
	sets  []cacheSet
	// addrs holds each way's line address, or invalidAddr when the way is
	// empty; lru its last-access tick (per set); dirty whether the resident
	// line differs from the backend (never set on an empty way); data its
	// 64 B payload.
	addrs []uint64
	lru   []uint64
	dirty []bool
	data  [][LineSize]byte
	lower backend
	stats *Stats
	cost  sim.CostModel
	// faults, when non-nil, is the armed crash-injection plan (test
	// harnesses only; see FaultPlan). Nil on every production path, so the
	// hot loops pay a single predictable branch.
	faults *FaultPlan
	// hook, when non-nil, receives every dirty-line writeback (see Hook).
	// Writebacks are off the hit path, so the disarmed cost is one pointer
	// test per writeback.
	hook Hook
	// dataless marks a timing-only cache: hit/miss/eviction state and cost
	// charging run as usual, but line payloads are never copied in or out.
	// Deterministic worker-parallel mode uses one dataless cache per worker
	// for timing while the device holds the authoritative bytes (see
	// System.EnterGroup) — payload copies here would both waste host work
	// and race with other workers' direct device access.
	dataless bool
}

// invalidAddr marks an empty way. Its low bits are set, so it never equals
// a line-aligned address and the hit scan can compare tags alone.
const invalidAddr = ^uint64(0)

// cacheSet is a set's lock and LRU clock, padded to exactly one host cache
// line: both are written on every access, and without the padding adjacent
// sets would share a host line and bounce it between workers hitting
// different sets. The set's ways live in the Cache's flat arrays.
type cacheSet struct {
	mu   spinLock
	tick uint64
	_    [48]byte
}

// newCache creates a cache of capacityBytes with the given associativity
// over the backend. The set count is rounded down to a power of two so set
// indexing is a mask. limit bounds valid addresses.
func newCache(lower backend, stats *Stats, mode Mode, capacityBytes, ways int, limit uint64, cost sim.CostModel) *Cache {
	if ways < 1 {
		ways = 1
	}
	nsets := uint64(capacityBytes / LineSize / ways)
	if nsets < 1 {
		nsets = 1
	}
	for nsets&(nsets-1) != 0 {
		nsets &= nsets - 1 // round down to a power of two
	}
	n := int(nsets) * ways
	c := &Cache{mode: mode, ways: ways, nsets: nsets, limit: limit, lower: lower, stats: stats, cost: cost,
		sets: make([]cacheSet, nsets), addrs: make([]uint64, n), lru: make([]uint64, n),
		dirty: make([]bool, n), data: make([][LineSize]byte, n)}
	for i := range c.addrs {
		c.addrs[i] = invalidAddr
	}
	return c
}

// Mode returns the persistence domain configuration.
func (c *Cache) Mode() Mode { return c.mode }

// setFor hashes the line address to a set and returns the set with the
// index of its first way. Real last-level caches hash their set index
// (Intel's slice/CBo hashing), which decorrelates the eviction times of
// adjacent lines; without this, a tuple's lines would be evicted together
// and merge in the XPBuffer even when never flushed, erasing the
// write-amplification effect the paper builds on (§3.3).
func (c *Cache) setFor(lineAddr uint64) (*cacheSet, int) {
	x := lineAddr / LineSize
	x ^= x >> 17
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	i := x & (c.nsets - 1)
	return &c.sets[i], int(i) * c.ways
}

func (c *Cache) checkRange(addr uint64, n int) {
	if addr+uint64(n) > c.limit {
		panic("pmem: access beyond space bounds")
	}
}

// Store writes src to [addr, addr+len(src)), installing the affected lines
// as dirty. The backend is not touched except through replacement
// write-backs.
func (c *Cache) Store(clk *sim.Clock, addr uint64, src []byte) {
	c.checkRange(addr, len(src))
	if c.faults != nil {
		c.faults.note(FaultStore)
		c.faults.check()
	}
	sh := c.stats.ShardFor(clk)
	sh.BytesStored.Add(uint64(len(src)))
	var hits uint64
	for len(src) > 0 {
		la := lineFloor(addr)
		off := int(addr - la)
		n := LineSize - off
		if n > len(src) {
			n = len(src)
		}
		if c.storeLine(clk, sh, la, off, src[:n]) {
			hits++
		}
		if c.faults != nil {
			// A line store may have noted evictions/drains under the set
			// lock; fire the pending crash now that no lock is held, with
			// the hits so far already counted.
			sh.CacheHits.Add(hits)
			hits = 0
			c.faults.check()
		}
		addr += uint64(n)
		src = src[n:]
	}
	sh.CacheHits.Add(hits)
}

// storeLine stores into one line and reports whether it hit. Hits are
// counted by the caller, once per Store; misses count here.
func (c *Cache) storeLine(clk *sim.Clock, sh *StatShard, lineAddr uint64, off int, src []byte) bool {
	set, base := c.setFor(lineAddr)
	set.mu.lock()

	if w := c.findHit(base, lineAddr); w >= 0 {
		if !c.dataless {
			copy(c.data[w][off:off+len(src)], src)
		}
		c.dirty[w] = true
		set.tick++
		c.lru[w] = set.tick
		set.mu.unlock()
		clk.Advance(c.cost.CacheHitLine)
		return true
	}

	w := c.victim(base)
	c.evictLocked(clk, sh, w)
	c.addrs[w] = lineAddr
	set.tick++
	c.lru[w] = set.tick
	sh.CacheMisses.Add(1)
	clk.Advance(c.cost.CacheMissLine)
	if off != 0 || len(src) != LineSize {
		// Write-allocate with fill: the untouched bytes of the line must
		// come from below. A store covering the whole line skips the fill —
		// every byte is about to be overwritten, so the read-modify-write
		// would be pure wasted host work and a spurious media/buffer read.
		c.lower.fillLine(clk, lineAddr, &c.data[w])
	}
	if !c.dataless {
		copy(c.data[w][off:off+len(src)], src)
	}
	c.dirty[w] = true
	set.mu.unlock()
	return false
}

// Load reads [addr, addr+len(dst)) into dst through the cache, installing
// missing lines as clean.
func (c *Cache) Load(clk *sim.Clock, addr uint64, dst []byte) {
	c.checkRange(addr, len(dst))
	sh := c.stats.ShardFor(clk)
	var hits uint64
	for len(dst) > 0 {
		la := lineFloor(addr)
		off := int(addr - la)
		n := LineSize - off
		if n > len(dst) {
			n = len(dst)
		}
		if c.loadLine(clk, sh, la, off, dst[:n]) {
			hits++
		}
		if c.faults != nil {
			sh.CacheHits.Add(hits)
			hits = 0
			c.faults.check() // evictions noted under the set lock
		}
		addr += uint64(n)
		dst = dst[n:]
	}
	sh.CacheHits.Add(hits)
}

// loadLine loads from one line and reports whether it hit (see storeLine).
func (c *Cache) loadLine(clk *sim.Clock, sh *StatShard, lineAddr uint64, off int, dst []byte) bool {
	set, base := c.setFor(lineAddr)
	set.mu.lock()

	if w := c.findHit(base, lineAddr); w >= 0 {
		if !c.dataless {
			copy(dst, c.data[w][off:off+len(dst)])
		}
		set.tick++
		c.lru[w] = set.tick
		set.mu.unlock()
		clk.Advance(c.cost.CacheHitLine)
		return true
	}

	w := c.victim(base)
	c.evictLocked(clk, sh, w)
	c.addrs[w] = lineAddr
	set.tick++
	c.lru[w] = set.tick
	sh.CacheMisses.Add(1)
	clk.Advance(c.cost.CacheMissLine)
	c.lower.fillLine(clk, lineAddr, &c.data[w])
	if !c.dataless {
		copy(dst, c.data[w][off:off+len(dst)])
	}
	set.mu.unlock()
	return false
}

// CLWB writes back the lines covering [addr, addr+n) if they are present and
// dirty, leaving them resident and clean — the semantics of the clwb
// instruction. The issue cost is charged per line regardless of residency;
// the paper's hinted flush (<sfence + clwb*>) does not stall for completion,
// so no completion wait is charged.
func (c *Cache) CLWB(clk *sim.Clock, addr uint64, n int) {
	if n <= 0 {
		return
	}
	c.checkRange(addr, n)
	sh := c.stats.ShardFor(clk)
	end := addr + uint64(n)
	for la := lineFloor(addr); la < end; la += LineSize {
		if c.faults != nil {
			c.faults.note(FaultFlush)
			c.faults.check()
		}
		clk.Advance(c.cost.ClwbIssue)
		c.writeBackResident(clk, sh, la, EvClwbLine)
		if c.faults != nil {
			c.faults.check() // drains noted under the bank lock
		}
	}
}

// writeBackResident is the per-line body of CLWB and CLWBTrain: if la is
// resident and dirty, write it back and leave it clean.
func (c *Cache) writeBackResident(clk *sim.Clock, sh *StatShard, la uint64, kind EventKind) {
	set, base := c.setFor(la)
	set.mu.lock()
	if w := c.findHit(base, la); w >= 0 && c.dirty[w] {
		clk.Advance(c.cost.LineWriteback)
		c.lower.writeBackLine(clk, la, &c.data[w])
		c.dirty[w] = false
		sh.ClwbWritebacks.Add(1)
		if c.hook != nil {
			now := clk.Nanos()
			c.hook(clk.ShardID(), kind, la, now, now)
		}
	}
	set.mu.unlock()
}

// Span is one contiguous byte range of a flush train.
type Span struct {
	Off uint64
	N   int
}

// Lines returns the number of 64 B cache lines the span covers.
func (s Span) Lines() int {
	if s.N <= 0 {
		return 0
	}
	first := lineFloor(s.Off)
	last := lineFloor(s.Off + uint64(s.N) - 1)
	return int((last-first)/LineSize) + 1
}

// CLWBTrain writes back the lines covering each span as one hinted
// multi-line flush train: the leading line of every span charges the full
// ClwbIssue, each further adjacent line only ClwbTrainNext — the coalesced
// persistence primitive behind leader-based group commit. Per-line write-back
// semantics are identical to CLWB (dirty resident lines go down and stay
// resident clean), and every line remains an individual FaultFlush point so
// mid-train crash seeds fall out of the existing fault calibration.
func (c *Cache) CLWBTrain(clk *sim.Clock, spans []Span) {
	sh := c.stats.ShardFor(clk)
	trained := false
	for _, sp := range spans {
		if sp.N <= 0 {
			continue
		}
		c.checkRange(sp.Off, sp.N)
		trained = true
		end := sp.Off + uint64(sp.N)
		first := true
		for la := lineFloor(sp.Off); la < end; la += LineSize {
			if c.faults != nil {
				c.faults.note(FaultFlush)
				c.faults.check()
			}
			if first {
				clk.Advance(c.cost.ClwbIssue)
				first = false
			} else {
				clk.Advance(c.cost.ClwbTrainNext)
			}
			sh.FlushTrainLines.Add(1)
			c.writeBackResident(clk, sh, la, EvTrainLine)
			if c.faults != nil {
				c.faults.check() // drains noted under the bank lock
			}
		}
	}
	if trained {
		sh.FlushTrains.Add(1)
	}
}

// SFence charges the fence cost. Ordering itself needs no modelling: the
// simulation executes each worker's operations in program order.
func (c *Cache) SFence(clk *sim.Clock) { clk.Advance(c.cost.Sfence) }

// FlushAll writes back every dirty line (clean shutdown / sync point). Lines
// remain resident and clean.
func (c *Cache) FlushAll(clk *sim.Clock) {
	for i := range c.sets {
		set := &c.sets[i]
		set.mu.lock()
		for w := i * c.ways; w < (i+1)*c.ways; w++ {
			if c.dirty[w] {
				c.lower.writeBackLine(clk, c.addrs[w], &c.data[w])
				c.dirty[w] = false
			}
		}
		set.mu.unlock()
	}
	c.lower.drain(clk)
}

// CrashFlush simulates a power failure. Under eADR every dirty line reaches
// the backend (the cache is in the persistence domain); under ADR dirty
// lines are lost. In both modes buffered controller state drains (the
// WPQ/XPBuffer is inside the ADR domain). The cache is left empty either way
// — a restarted system boots cold.
func (c *Cache) CrashFlush() {
	clk := sim.NewClock() // crash flushing is not charged to any worker
	c.crashWriteback(clk)
	c.lower.drain(clk)
}

// crashWriteback runs the persistence-domain line sweep of CrashFlush
// without the backend drain, so a fault plan can tear buffered blocks
// between the two steps (System.Crash).
func (c *Cache) crashWriteback(clk *sim.Clock) {
	sh := c.stats.ShardFor(clk)
	for i := range c.sets {
		set := &c.sets[i]
		set.mu.lock()
		for w := i * c.ways; w < (i+1)*c.ways; w++ {
			if c.dirty[w] {
				if c.mode == EADR {
					c.lower.writeBackLine(clk, c.addrs[w], &c.data[w])
					sh.CrashFlushedLines.Add(1)
				} else {
					sh.CrashDroppedLines.Add(1)
				}
			}
			c.addrs[w], c.dirty[w] = invalidAddr, false
		}
		set.mu.unlock()
	}
}

// evictLocked frees way w, writing back its line if dirty. Caller holds the
// set mutex and immediately reuses the slot.
func (c *Cache) evictLocked(clk *sim.Clock, sh *StatShard, w int) {
	la := c.addrs[w]
	if la == invalidAddr {
		return
	}
	if c.faults != nil {
		c.faults.note(FaultEvict) // under the set lock: note only, no panic
	}
	if c.dirty[w] {
		clk.Advance(c.cost.LineWriteback)
		c.lower.writeBackLine(clk, la, &c.data[w])
		sh.DirtyEvictions.Add(1)
		if c.hook != nil {
			now := clk.Nanos()
			c.hook(clk.ShardID(), EvEvictLine, la, now, now)
		}
	} else {
		sh.CleanEvictions.Add(1)
	}
	c.addrs[w], c.dirty[w] = invalidAddr, false
}

// invalidateAll drops every resident line without writing anything back.
// Used when entering deterministic group mode: the device image has just
// been made authoritative (FlushAll), and any line left resident would go
// stale against the group's direct device writes.
func (c *Cache) invalidateAll() {
	for i := range c.sets {
		set := &c.sets[i]
		set.mu.lock()
		for w := i * c.ways; w < (i+1)*c.ways; w++ {
			c.addrs[w], c.dirty[w] = invalidAddr, false
		}
		set.mu.unlock()
	}
}

// findHit returns the flat index of the way in the set starting at base
// that holds lineAddr, or -1. Hits are the common case, so this is a bare
// compare over the set's 8 B tags; empty ways hold invalidAddr and never
// match. The victim walk runs separately and only on misses.
func (c *Cache) findHit(base int, lineAddr uint64) int {
	for i, a := range c.addrs[base : base+c.ways] {
		if a == lineAddr {
			return base + i
		}
	}
	return -1
}

// victim returns the flat index of the replacement way for a miss in the
// set starting at base: the first empty way if any, otherwise the
// least-recently-used line (strict <, walk order breaks ties).
func (c *Cache) victim(base int) int {
	v := -1
	var vlru uint64
	for w := base; w < base+c.ways; w++ {
		if c.addrs[w] == invalidAddr {
			return w
		}
		if v < 0 || c.lru[w] < vlru {
			v, vlru = w, c.lru[w]
		}
	}
	return v
}
