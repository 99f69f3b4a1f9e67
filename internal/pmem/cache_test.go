package pmem

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"falcon/internal/sim"
)

// TestHostLayout pins the host-memory layout the hot paths rely on: each
// cache set's lock and tick fill exactly one host cache line, stats shards
// are whole lines, and the device's stats start on a line of their own,
// away from the size/chunks fields every worker reads.
func TestHostLayout(t *testing.T) {
	if got := unsafe.Sizeof(cacheSet{}); got != 64 {
		t.Errorf("sizeof(cacheSet) = %d, want 64", got)
	}
	if got := unsafe.Sizeof(StatShard{}); got%64 != 0 {
		t.Errorf("sizeof(StatShard) = %d, want a multiple of 64", got)
	}
	if got := unsafe.Offsetof(Device{}.stats); got%64 != 0 {
		t.Errorf("offsetof(Device.stats) = %d, want a multiple of 64", got)
	}
}

// recBackend is a cache backend that records the order in which line
// addresses reach it and keeps their content in a map. It charges no
// virtual time, so the cache's own charges are all the clock sees.
type recBackend struct {
	mem    map[uint64][LineSize]byte
	events []string
}

func newRecBackend() *recBackend { return &recBackend{mem: map[uint64][LineSize]byte{}} }

func (b *recBackend) writeBackLine(_ *sim.Clock, la uint64, data *[LineSize]byte) {
	b.mem[la] = *data
	b.events = append(b.events, fmt.Sprintf("wb %#x", la))
}

func (b *recBackend) fillLine(_ *sim.Clock, la uint64, dst *[LineSize]byte) {
	*dst = b.mem[la]
	b.events = append(b.events, fmt.Sprintf("fill %#x", la))
}

func (b *recBackend) drain(*sim.Clock) { b.events = append(b.events, "drain") }

// modelWay and modelCache are the reference: a plain per-set LRU cache
// written for clarity, not speed. Victims are the first invalid way, else
// the minimum tick with strict <. Its counters mirror StatShard's, each
// bumped at the moment the event happens, and its fault plan mirrors
// FaultPlan's note/check points.
type modelWay struct {
	addr         uint64
	valid, dirty bool
	lru          uint64
	data         [LineSize]byte
}

type modelCache struct {
	mode  Mode
	cost  sim.CostModel
	setOf func(la uint64) int
	sets  [][]modelWay
	ticks []uint64
	back  *recBackend
	clk   uint64
	st    Snapshot

	// Fault plan: crash at the faultN-th faultEv (0 = never).
	faultEv          FaultEvent
	faultN           uint64
	counts           [NumFaultEvents]uint64
	tripped, crashed bool
}

type modelCrash struct{}

func (m *modelCache) note(e FaultEvent) {
	m.counts[e]++
	if m.faultN != 0 && !m.crashed && e == m.faultEv && m.counts[e] >= m.faultN {
		m.tripped = true
	}
}

func (m *modelCache) check() {
	if m.tripped && !m.crashed {
		m.crashed = true
		panic(modelCrash{})
	}
}

// access installs or touches line la and returns its way, charging hit or
// miss costs; fill says whether a miss reads the line from below.
func (m *modelCache) access(la uint64, fill bool) *modelWay {
	s := m.setOf(la)
	ways := m.sets[s]
	m.ticks[s]++
	for i := range ways {
		if ways[i].valid && ways[i].addr == la {
			ways[i].lru = m.ticks[s]
			m.st.CacheHits++
			m.clk += m.cost.CacheHitLine
			return &ways[i]
		}
	}
	v := -1
	for i := range ways {
		if !ways[i].valid {
			v = i
			break
		}
		if v < 0 || ways[i].lru < ways[v].lru {
			v = i
		}
	}
	w := &ways[v]
	if w.valid {
		m.note(FaultEvict)
		if w.dirty {
			m.clk += m.cost.LineWriteback
			m.back.writeBackLine(nil, w.addr, &w.data)
			m.st.DirtyEvictions++
		} else {
			m.st.CleanEvictions++
		}
	}
	*w = modelWay{addr: la, valid: true, lru: m.ticks[s]}
	m.st.CacheMisses++
	m.clk += m.cost.CacheMissLine
	if fill {
		m.back.fillLine(nil, la, &w.data)
	}
	return w
}

func (m *modelCache) load(addr uint64, dst []byte) {
	for len(dst) > 0 {
		la, off := lineFloor(addr), int(addr-lineFloor(addr))
		n := min(LineSize-off, len(dst))
		w := m.access(la, true)
		copy(dst[:n], w.data[off:])
		m.check()
		addr += uint64(n)
		dst = dst[n:]
	}
}

func (m *modelCache) store(addr uint64, src []byte) {
	m.note(FaultStore)
	m.check()
	m.st.BytesStored += uint64(len(src))
	for len(src) > 0 {
		la, off := lineFloor(addr), int(addr-lineFloor(addr))
		n := min(LineSize-off, len(src))
		w := m.access(la, off != 0 || n != LineSize)
		copy(w.data[off:], src[:n])
		w.dirty = true
		m.check()
		addr += uint64(n)
		src = src[n:]
	}
}

func (m *modelCache) writeBack(la uint64) {
	for i := range m.sets[m.setOf(la)] {
		w := &m.sets[m.setOf(la)][i]
		if w.valid && w.addr == la && w.dirty {
			m.clk += m.cost.LineWriteback
			m.back.writeBackLine(nil, la, &w.data)
			w.dirty = false
			m.st.ClwbWritebacks++
		}
	}
}

func (m *modelCache) clwb(addr uint64, n int) {
	for la := lineFloor(addr); la < addr+uint64(n); la += LineSize {
		m.note(FaultFlush)
		m.check()
		m.clk += m.cost.ClwbIssue
		m.writeBack(la)
		m.check()
	}
}

func (m *modelCache) clwbTrain(spans []Span) {
	trained := false
	for _, sp := range spans {
		if sp.N <= 0 {
			continue
		}
		trained = true
		for la := lineFloor(sp.Off); la < sp.Off+uint64(sp.N); la += LineSize {
			m.note(FaultFlush)
			m.check()
			if la == lineFloor(sp.Off) {
				m.clk += m.cost.ClwbIssue
			} else {
				m.clk += m.cost.ClwbTrainNext
			}
			m.st.FlushTrainLines++
			m.writeBack(la)
			m.check()
		}
	}
	if trained {
		m.st.FlushTrains++
	}
}

func (m *modelCache) flushAll() {
	for s := range m.sets {
		for i := range m.sets[s] {
			if w := &m.sets[s][i]; w.valid && w.dirty {
				m.back.writeBackLine(nil, w.addr, &w.data)
				w.dirty = false
			}
		}
	}
	m.back.drain(nil)
}

func (m *modelCache) crashFlush() {
	for s := range m.sets {
		for i := range m.sets[s] {
			w := &m.sets[s][i]
			if w.valid && w.dirty {
				if m.mode == EADR {
					m.back.writeBackLine(nil, w.addr, &w.data)
					m.st.CrashFlushedLines++
				} else {
					m.st.CrashDroppedLines++
				}
			}
			w.valid, w.dirty = false, false
		}
	}
	m.back.drain(nil)
}

// runCacheModel drives one seeded random operation sequence through a real
// 4-set x 4-way Cache and through the reference model side by side, and
// fails on the first divergence in per-op hit/miss counts, loaded bytes,
// virtual time, backend line order, or any StatShard counter. With faultN
// set, both sides arm the same crash point; the injected panic must fire
// at the same op on both, with all counters (batched cache hits included)
// already equal.
func runCacheModel(t *testing.T, seed int64, mode Mode, faultEv FaultEvent, faultN uint64) {
	const (
		sets  = 4
		ways  = 4
		limit = 8 << 10
	)
	cost := sim.DefaultCostModel()
	var stats Stats
	rb := newRecBackend()
	c := newCache(rb, &stats, mode, sets*ways*LineSize, ways, limit, cost)
	if c.nsets != sets {
		t.Fatalf("nsets = %d, want %d", c.nsets, sets)
	}
	var plan *FaultPlan
	if faultN != 0 {
		plan = &FaultPlan{Event: faultEv, N: faultN}
		c.faults = plan
	}
	mb := newRecBackend()
	m := &modelCache{mode: mode, cost: cost, back: mb, faultEv: faultEv, faultN: faultN,
		sets: make([][]modelWay, sets), ticks: make([]uint64, sets),
		setOf: func(la uint64) int { _, base := c.setFor(la); return base / ways }}
	for i := range m.sets {
		m.sets[i] = make([]modelWay, ways)
	}

	clk := sim.NewClock()
	rng := rand.New(rand.NewSource(seed))
	// Most accesses fall in a 1 KiB hot range (hits and LRU reordering);
	// the rest spread over 8 KiB, 8x the cache (misses and evictions).
	randAddr := func(n int) uint64 {
		span := uint64(limit)
		if rng.Intn(10) < 7 {
			span = 1 << 10
		}
		return uint64(rng.Int63n(int64(span - uint64(n) + 1)))
	}
	randLen := func() int {
		if rng.Intn(3) == 0 {
			return LineSize // whole line when aligned
		}
		return 1 + rng.Intn(3*LineSize)
	}
	// call runs f and reports whether it raised an injected crash.
	call := func(f func()) (crashed bool) {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(modelCrash); ok || IsInjectedCrash(r) {
					crashed = true
					return
				}
				panic(r)
			}
		}()
		f()
		return false
	}

	crashes, seen, crashOp := 0, 0, 0
	for op := 0; op < 3000; op++ {
		if crashes > 0 && op > crashOp+20 {
			break // a few ops past the crash show the caches still agree
		}
		before := stats.Snapshot()
		mHits, mMisses := m.st.CacheHits, m.st.CacheMisses
		var desc string
		var gotBuf, wantBuf []byte
		var cCrash, mCrash bool
		switch k := rng.Intn(100); {
		case k < 40:
			n := randLen()
			a := randAddr(n)
			if n == LineSize && rng.Intn(2) == 0 {
				a = lineFloor(a)
			}
			desc = fmt.Sprintf("Load(%#x, %d)", a, n)
			gotBuf, wantBuf = make([]byte, n), make([]byte, n)
			cCrash = call(func() { c.Load(clk, a, gotBuf) })
			mCrash = call(func() { m.load(a, wantBuf) })
		case k < 80:
			n := randLen()
			a := randAddr(n)
			if n == LineSize && rng.Intn(2) == 0 {
				a = lineFloor(a)
			}
			src := make([]byte, n)
			rng.Read(src)
			desc = fmt.Sprintf("Store(%#x, %d)", a, n)
			cCrash = call(func() { c.Store(clk, a, src) })
			mCrash = call(func() { m.store(a, src) })
		case k < 90:
			n := randLen()
			a := randAddr(n)
			desc = fmt.Sprintf("CLWB(%#x, %d)", a, n)
			cCrash = call(func() { c.CLWB(clk, a, n) })
			mCrash = call(func() { m.clwb(a, n) })
		case k < 97:
			var spans []Span
			for i := rng.Intn(4); i >= 0; i-- {
				n := rng.Intn(3 * LineSize) // zero-length spans included
				spans = append(spans, Span{Off: randAddr(n), N: n})
			}
			desc = fmt.Sprintf("CLWBTrain(%v)", spans)
			cCrash = call(func() { c.CLWBTrain(clk, spans) })
			mCrash = call(func() { m.clwbTrain(spans) })
		case k < 99:
			desc = "FlushAll"
			c.FlushAll(clk)
			m.flushAll()
		default:
			desc = "CrashFlush"
			c.CrashFlush()
			m.crashFlush()
		}
		where := fmt.Sprintf("seed %d op %d %s", seed, op, desc)
		if cCrash != mCrash {
			t.Fatalf("%s: injected crash on cache=%v model=%v", where, cCrash, mCrash)
		}
		if cCrash {
			crashes++
			crashOp = op
		}
		d := stats.Snapshot().Sub(before)
		if d.CacheHits != m.st.CacheHits-mHits || d.CacheMisses != m.st.CacheMisses-mMisses {
			t.Fatalf("%s: hits/misses = %d/%d, model %d/%d", where,
				d.CacheHits, d.CacheMisses, m.st.CacheHits-mHits, m.st.CacheMisses-mMisses)
		}
		if !bytes.Equal(gotBuf, wantBuf) {
			t.Fatalf("%s: loaded % x, model % x", where, gotBuf, wantBuf)
		}
		if clk.Nanos() != m.clk {
			t.Fatalf("%s: virtual time %d, model %d", where, clk.Nanos(), m.clk)
		}
		if got := stats.Snapshot(); got != m.st {
			t.Fatalf("%s: counters\n got  %+v\n want %+v", where, got, m.st)
		}
		if !slices.Equal(rb.events[seen:], mb.events[seen:]) {
			t.Fatalf("%s: backend line order\n got  %v\n want %v", where, rb.events[seen:], mb.events[seen:])
		}
		seen = len(rb.events)
	}
	if faultN != 0 {
		if crashes != 1 {
			t.Fatalf("seed %d: %d injected crashes, want exactly 1", seed, crashes)
		}
		if plan.Counts() != m.counts {
			t.Fatalf("seed %d: fault counts %v, model %v", seed, plan.Counts(), m.counts)
		}
	}
}

// TestCacheMatchesReferenceModel is the differential test of the simulated
// cache against the plain per-set LRU model, in both persistence modes and
// with crash points armed on each fault event.
func TestCacheMatchesReferenceModel(t *testing.T) {
	seeds := int64(8)
	if testing.Short() {
		seeds = 2
	}
	for seed := int64(1); seed <= seeds; seed++ {
		for _, mode := range []Mode{EADR, ADR} {
			runCacheModel(t, seed, mode, 0, 0)
		}
	}
	// Crash points early in the run, on every event class: a crash that
	// fires mid-Load or mid-Store after some of the call's lines hit checks
	// that the batched hit count was published before the panic.
	for _, ev := range []FaultEvent{FaultStore, FaultFlush, FaultEvict} {
		for n := uint64(1); n <= 40; n++ {
			runCacheModel(t, int64(n), EADR, ev, n)
		}
	}
}
