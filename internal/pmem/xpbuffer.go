package pmem

import "falcon/internal/sim"

// XPBuffer models the write-combining buffer inside an Optane NVM module
// (paper §3.2, Figure 2). Incoming 64 B cache-line write-backs are staged in
// 256 B block slots. If neighbouring lines of the same block arrive while the
// slot is still resident, they merge and the eventual media write is a single
// full-block write. If a slot is evicted while only partially populated, the
// controller must read the block from the media, merge, and write it back —
// the read-modify-write amplification the paper's hinted flush avoids.
//
// The buffer is banked by block address so concurrent workers contend only
// when they touch nearby blocks, loosely modelling per-DIMM controllers.
type XPBuffer struct {
	dev   *Device
	cost  sim.CostModel
	banks []xpBank
	// faults, when non-nil, counts slot evictions for crash injection (see
	// FaultPlan). The buffer only notes events — it always runs under a bank
	// lock, so the panic fires later at a lock-free point in the cache.
	faults *FaultPlan
	// hook, when non-nil, receives every slot eviction (see Hook). The
	// unarmed path pays one pointer test per eviction.
	hook Hook
	// dataless marks a timing-only buffer (deterministic group mode): slot
	// occupancy, merge accounting and media-cost charging run as usual, but
	// no payload bytes are staged and — critically — evictions never write
	// to the device. In group mode the device bytes are maintained directly
	// by the space; a stale staged payload flushing over them would corrupt
	// the authoritative image, and the read-modify-write media read of a
	// partial eviction would race other workers' direct device writes.
	dataless bool
}

type xpSlot struct {
	blockAddr uint64
	mask      uint8 // bit i set => line i of the block holds valid data
	used      bool
	// LRU list links (indexes into the bank's slot array; -1 = none). The
	// next link doubles as the free-list link while the slot is unused.
	prev, next int
	data       [BlockSize]byte
}

type xpBank struct {
	mu    spinLock
	slots []xpSlot
	index map[uint64]int // blockAddr -> slot
	head  int            // most recently used
	tail  int            // least recently used
	free  int            // head of the unused-slot list (-1 = bank full)
}

// NewXPBuffer creates a buffer with the given total capacity in bytes spread
// over nbanks banks. Capacity is rounded so each bank holds at least one
// slot.
func NewXPBuffer(dev *Device, capacityBytes, nbanks int, cost sim.CostModel) *XPBuffer {
	if nbanks < 1 {
		nbanks = 1
	}
	slotsPerBank := capacityBytes / BlockSize / nbanks
	if slotsPerBank < 1 {
		slotsPerBank = 1
	}
	b := &XPBuffer{dev: dev, cost: cost, banks: make([]xpBank, nbanks)}
	for i := range b.banks {
		bank := &b.banks[i]
		bank.slots = make([]xpSlot, slotsPerBank)
		bank.index = make(map[uint64]int, slotsPerBank)
		bank.head, bank.tail = -1, -1
		// Chain all slots onto the free list through their next links.
		bank.free = 0
		for j := range bank.slots {
			bank.slots[j].prev = -1
			bank.slots[j].next = j + 1
		}
		bank.slots[slotsPerBank-1].next = -1
	}
	return b
}

func (b *XPBuffer) bankFor(blockAddr uint64) *xpBank {
	return &b.banks[(blockAddr/BlockSize)%uint64(len(b.banks))]
}

// WriteLine accepts one dirty 64 B line written back from the CPU cache and
// stages it in the buffer, evicting a victim block to the media if the bank
// is full. Costs are charged to clk (which may be nil during crash flushes).
func (b *XPBuffer) WriteLine(clk *sim.Clock, lineAddr uint64, data *[LineSize]byte) {
	blockAddr := blockFloor(lineAddr)
	lineIdx := int(lineAddr-blockAddr) / LineSize
	bank := b.bankFor(blockAddr)
	sh := b.dev.stats.ShardFor(clk)

	bank.mu.lock()

	if si, ok := bank.index[blockAddr]; ok {
		s := &bank.slots[si]
		if !b.dataless {
			copy(s.data[lineIdx*LineSize:(lineIdx+1)*LineSize], data[:])
		}
		if s.mask&(1<<lineIdx) == 0 {
			s.mask |= 1 << lineIdx
			sh.XPBufferMerges.Add(1)
		}
		bank.touch(si)
		bank.mu.unlock()
		return
	}

	si := bank.takeFreeSlot()
	if si < 0 {
		si = bank.tail
		b.evictSlotLocked(clk, sh, bank, si)
		// evictSlotLocked pushed the slot back on the free list; reclaim it.
		si = bank.takeFreeSlot()
	}
	s := &bank.slots[si]
	s.blockAddr = blockAddr
	s.mask = 1 << lineIdx
	s.used = true
	if !b.dataless {
		copy(s.data[lineIdx*LineSize:(lineIdx+1)*LineSize], data[:])
	}
	bank.index[blockAddr] = si
	bank.pushFront(si)
	bank.mu.unlock()
}

// ReadLine fills dst with the current content of the 64 B line at lineAddr,
// preferring buffered data over the media. It reports whether the XPBuffer
// had the line (so the caller can charge XPBufferHit instead of a media
// read).
func (b *XPBuffer) ReadLine(clk *sim.Clock, lineAddr uint64, dst *[LineSize]byte) (fromBuffer bool) {
	blockAddr := blockFloor(lineAddr)
	lineIdx := int(lineAddr-blockAddr) / LineSize
	bank := b.bankFor(blockAddr)
	sh := b.dev.stats.ShardFor(clk)

	bank.mu.lock()
	if si, ok := bank.index[blockAddr]; ok {
		s := &bank.slots[si]
		if s.mask&(1<<lineIdx) != 0 {
			if !b.dataless {
				copy(dst[:], s.data[lineIdx*LineSize:(lineIdx+1)*LineSize])
			}
			bank.mu.unlock()
			sh.XPBufferHits.Add(1)
			clk.Advance(b.cost.XPBufferHit)
			return true
		}
	}
	// The media read happens under the bank lock, like evictions' media
	// writes, so a fill can never observe a torn concurrent write-back.
	// Dataless buffers charge the read without touching device bytes (the
	// caller reads data straight from the device; see XPBuffer.dataless).
	if !b.dataless {
		b.dev.readLineInto(lineAddr, dst)
	}
	bank.mu.unlock()
	sh.MediaReads.Add(1)
	clk.Advance(b.cost.MediaReadBlock)
	return false
}

// evictSlotLocked writes the victim slot out to the media and returns it to
// the bank's free list. Full blocks cost a single media write; partial
// blocks cost a read-modify-write.
func (b *XPBuffer) evictSlotLocked(clk *sim.Clock, sh *StatShard, bank *xpBank, si int) {
	s := &bank.slots[si]
	if !s.used {
		return
	}
	if b.faults != nil {
		b.faults.note(FaultDrain) // under the bank lock: note only
	}
	evStart := clk.Nanos()
	full := s.mask == (1<<LinesPerBlock)-1
	if full {
		if !b.dataless {
			b.dev.writeBlock(s.blockAddr, s.data[:])
		}
		sh.FullBlockWrites.Add(1)
	} else {
		// Read-modify-write: fetch the block, merge the valid lines, write
		// the whole block back.
		sh.MediaReads.Add(1)
		clk.Advance(b.cost.MediaReadBlock)
		if !b.dataless {
			b.dev.writeLines(s.blockAddr, s.data[:], s.mask)
		}
		sh.PartialBlockWrites.Add(1)
	}
	sh.MediaWrites.Add(1)
	sh.BytesToMedia.Add(BlockSize)
	clk.Advance(b.cost.MediaWriteBlock)
	if b.hook != nil {
		// The hook only touches worker-local state (no locks), so calling
		// it under the bank spinlock is safe.
		kind := EvXPEvictFull
		if !full {
			kind = EvXPEvictPartial
		}
		b.hook(clk.ShardID(), kind, s.blockAddr, evStart, clk.Nanos())
	}

	delete(bank.index, s.blockAddr)
	bank.unlink(si)
	s.used = false
	s.mask = 0
	s.next = bank.free
	bank.free = si
}

// Drain writes every buffered block to the media. The memory controller is
// inside the persistence domain in both ADR and eADR, so Drain runs on every
// simulated crash; it is also used by Sync for clean shutdowns.
func (b *XPBuffer) Drain(clk *sim.Clock) {
	sh := b.dev.stats.ShardFor(clk)
	for i := range b.banks {
		bank := &b.banks[i]
		bank.mu.lock()
		for bank.tail != -1 {
			b.evictSlotLocked(clk, sh, bank, bank.tail)
		}
		bank.mu.unlock()
	}
}

// tearOne simulates a torn 256 B media write at crash time: one buffered
// block loses a pseudo-random nonempty subset of its valid lines before the
// crash drain. The lost lines keep their previous durable content on the
// media — line-granular tearing, the failure mode of a block write
// interrupted mid-transfer. Candidate selection is deterministic (banks and
// slots in index order) so a seed reproduces the same tear.
func (b *XPBuffer) tearOne(p *FaultPlan) {
	type cand struct {
		bank *xpBank
		si   int
	}
	var cands []cand
	for i := range b.banks {
		bank := &b.banks[i]
		for si := range bank.slots {
			if bank.slots[si].used {
				cands = append(cands, cand{bank, si})
			}
		}
	}
	if len(cands) == 0 {
		return
	}
	state := p.Seed ^ 0x7ea4
	c := cands[rng(&state)%uint64(len(cands))]
	s := &c.bank.slots[c.si]
	drop := uint8(rng(&state)) & s.mask
	if drop == 0 {
		drop = s.mask & (^s.mask + 1) // lowest valid line
	}
	s.mask &^= drop
	if s.mask == 0 {
		delete(c.bank.index, s.blockAddr)
		c.bank.unlink(c.si)
		s.used = false
		s.next = c.bank.free
		c.bank.free = c.si
	}
}

// backend interface adapters (see cache.go).

func (b *XPBuffer) writeBackLine(clk *sim.Clock, lineAddr uint64, data *[LineSize]byte) {
	b.WriteLine(clk, lineAddr, data)
}

func (b *XPBuffer) fillLine(clk *sim.Clock, lineAddr uint64, dst *[LineSize]byte) {
	b.ReadLine(clk, lineAddr, dst)
}

func (b *XPBuffer) drain(clk *sim.Clock) { b.Drain(clk) }

// ---- bank LRU / free-list helpers (caller holds bank.mu) ----

// takeFreeSlot pops the free-list head, replacing the former O(slots) scan
// for an unused slot with a constant-time unlink.
func (k *xpBank) takeFreeSlot() int {
	si := k.free
	if si >= 0 {
		k.free = k.slots[si].next
		k.slots[si].next = -1
	}
	return si
}

func (k *xpBank) pushFront(si int) {
	s := &k.slots[si]
	s.prev = -1
	s.next = k.head
	if k.head != -1 {
		k.slots[k.head].prev = si
	}
	k.head = si
	if k.tail == -1 {
		k.tail = si
	}
}

func (k *xpBank) unlink(si int) {
	s := &k.slots[si]
	if s.prev != -1 {
		k.slots[s.prev].next = s.next
	} else if k.head == si {
		k.head = s.next
	}
	if s.next != -1 {
		k.slots[s.next].prev = s.prev
	} else if k.tail == si {
		k.tail = s.prev
	}
	s.prev, s.next = -1, -1
}

func (k *xpBank) touch(si int) {
	if k.head == si {
		return
	}
	k.unlink(si)
	k.pushFront(si)
}
