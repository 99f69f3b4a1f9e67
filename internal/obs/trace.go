package obs

import (
	"time"

	"falcon/internal/pmem"
)

// EventKind classifies one trace event. Span kinds have a Start and an End
// virtual timestamp; instant kinds carry only Start.
type EventKind uint8

const (
	// EvTxn spans a whole transaction attempt, Begin to commit/abort. The
	// Abort field distinguishes outcomes; Arg is the attempt's TID.
	EvTxn EventKind = iota
	// EvPhase spans one PhaseTimer segment; the Phase field names it.
	EvPhase
	// EvLockWait spans a read stalled behind a concurrent writer's mid-apply
	// window (the snapshot-read spin). Arg is the heap slot.
	EvLockWait
	// EvWALClaim is an instant: a log-window slot claim. Arg is the slot
	// index; Arg2 is 1 when the claim wrapped onto a previously used slot.
	EvWALClaim
	// EvXPEvict is an instant (with media-latency duration): an XPBuffer slot
	// eviction to the media. Arg is 1 for a full-block write, 0 for a partial
	// read-modify-write; Arg2 is the block address.
	EvXPEvict
	// EvFlushTrain spans one selective-flush pass (the clwb train over a
	// transaction's touched tuples, or the flushed-log commit-record clwb).
	// Arg is the number of cache lines flushed; Arg2 counts flushes elided by
	// the hot set.
	EvFlushTrain
	// EvEpochSeal spans the sealing of one group-commit durability epoch: the
	// coalesced record/data flush trains, the single epoch drain, and the
	// durable-marker publish. Arg is the epoch id; Arg2 the number of records
	// the epoch coalesced.
	EvEpochSeal

	// NumEventKinds is the number of kinds (array sizing).
	NumEventKinds = int(EvEpochSeal) + 1
)

// EventKindNames maps EventKind values to stable short names.
var EventKindNames = [NumEventKinds]string{
	"txn", "phase", "lock-wait", "wal-claim", "xp-evict", "flush-train",
	"epoch-seal",
}

func (k EventKind) String() string {
	if int(k) < NumEventKinds {
		return EventKindNames[k]
	}
	return "unknown"
}

// Event is one trace record. Start/End are virtual nanoseconds from the
// owning worker's sim.Clock; Host is host wall time (nanoseconds since the
// tracer was armed) so virtual-time anomalies can be correlated with host
// behaviour. Events are plain values sized for bulk copying in and out of the
// per-worker rings.
type Event struct {
	Start uint64    `json:"start"`
	End   uint64    `json:"end"`
	Host  int64     `json:"host"`
	TID   uint64    `json:"tid"`
	Arg   uint64    `json:"arg,omitempty"`
	Arg2  uint64    `json:"arg2,omitempty"`
	Kind  EventKind `json:"kind"`
	Phase Phase     `json:"phase,omitempty"`
	// Abort is the outcome of an EvTxn event: 0 = committed, otherwise
	// AbortReason+1 (shifted so the zero value means "committed").
	Abort  int16 `json:"abort,omitempty"`
	Worker int32 `json:"worker"`
}

// Exemplar is a fully captured transaction: its complete span stack,
// regardless of the head-sampling rate. Slow and aborted transactions are
// always kept as exemplars — that is the point of the tracer.
type Exemplar struct {
	Worker int    `json:"worker"`
	TID    uint64 `json:"tid"`
	Start  uint64 `json:"start"`
	End    uint64 `json:"end"`
	// Abort names the abort reason from the taxonomy; empty for committed
	// transactions.
	Abort  string  `json:"abort,omitempty"`
	Events []Event `json:"events"`
}

// Dur returns the exemplar's virtual duration.
func (e *Exemplar) Dur() uint64 { return e.End - e.Start }

// TraceOptions configures a Tracer.
type TraceOptions struct {
	// Sample keeps every Nth transaction's spans in the ring (head sampling,
	// decided at Begin). 0 or 1 keeps every transaction. Exemplar capture is
	// unaffected: slow and aborted transactions are always captured.
	Sample int
	// RingCap is the per-worker event-ring capacity (default 8192). The ring
	// overwrites oldest events; Dropped in the dump counts the loss.
	RingCap int
	// SlowK is the number of slowest-transaction exemplars kept per worker
	// (default 8).
	SlowK int
	// AbortCap is the number of most-recent aborted-transaction exemplars
	// kept per worker (default 32).
	AbortCap int
}

func (o TraceOptions) withDefaults() TraceOptions {
	if o.Sample < 1 {
		o.Sample = 1
	}
	if o.RingCap <= 0 {
		o.RingCap = 8192
	}
	if o.SlowK <= 0 {
		o.SlowK = 8
	}
	if o.AbortCap <= 0 {
		o.AbortCap = 32
	}
	return o
}

// Tracer owns one WorkerTracer per worker. Like every other per-worker
// accumulator in this codebase (sim.Clock, PhaseSet, wal.Window) each
// WorkerTracer is single-writer: only the owning worker goroutine records
// into it, and Dump may run only when the workers are quiescent. The Tracer
// itself is immutable after construction, so handing out Worker pointers is
// race-free.
type Tracer struct {
	opt     TraceOptions
	start   time.Time
	workers []WorkerTracer
}

// NewTracer builds a tracer for the given worker count.
func NewTracer(workers int, opt TraceOptions) *Tracer {
	if workers < 1 {
		workers = 1
	}
	opt = opt.withDefaults()
	t := &Tracer{opt: opt, start: time.Now(), workers: make([]WorkerTracer, workers)}
	for i := range t.workers {
		w := &t.workers[i]
		w.tr = t
		w.worker = int32(i)
		w.ring = make([]Event, 0, opt.RingCap)
		w.slow = make([]Exemplar, 0, opt.SlowK)
		w.aborted = make([]Exemplar, opt.AbortCap)
		w.cur = make([]Event, 0, 64)
	}
	return t
}

// Workers returns the number of per-worker tracers.
func (t *Tracer) Workers() int { return len(t.workers) }

// Worker returns worker w's tracer (nil when w is out of range, so callers
// can arm exactly the workers they have).
func (t *Tracer) Worker(w int) *WorkerTracer {
	if t == nil || w < 0 || w >= len(t.workers) {
		return nil
	}
	return &t.workers[w]
}

// PmemEvent is the tracer's half of the pmem hook (see PmemHook): XPBuffer
// evictions become EvXPEvict spans, every other kind is ignored. The shard
// id of the clock that caused the event doubles as the worker id — the same
// routing the sharded pmem counters use — so the single-writer rule holds:
// shard s events are only produced while worker s's goroutine runs.
// Anonymous clocks (setup, crash flushes) land on worker 0, which only
// records while the workers are stopped.
func (t *Tracer) PmemEvent(shard uint64, kind pmem.EventKind, addr, start, end uint64) {
	if t == nil || shard >= uint64(len(t.workers)) {
		return
	}
	var full uint64
	switch kind {
	case pmem.EvXPEvictFull:
		full = 1
	case pmem.EvXPEvictPartial:
	default:
		return
	}
	t.workers[shard].Span(EvXPEvict, start, end, full, addr)
}

// WorkerTracer records one worker's events. All methods are nil-receiver
// safe, so instrumentation sites pay a single pointer test when tracing is
// unarmed. While a transaction is active every event goes to the cur scratch
// buffer; TxnEnd routes the completed span stack to the ring (if sampled)
// and to the exemplar stores (always, if slow or aborted). Events outside a
// transaction (recovery phases, micro-benchmark loops) go straight to the
// ring.
type WorkerTracer struct {
	tr     *Tracer
	worker int32

	// txn-scoped scratch state (single-writer).
	cur      []Event
	active   bool
	sampled  bool
	txnStart uint64
	txnTID   uint64
	txns     uint64

	// ring is the bounded sampled-event store; n is the next write index
	// once the ring is full. dropped counts overwritten events.
	ring    []Event
	ringN   int
	dropped uint64

	// slow keeps the K slowest transactions (linear min-replace — K is
	// small); aborted is a ring of the most recent aborted transactions.
	slow     []Exemplar
	aborted  []Exemplar
	abortN   int
	abortLen int

	// pad keeps adjacent workers' hot scratch state off one cache line.
	_ [4]uint64
}

// host returns host nanoseconds since the tracer was armed.
func (w *WorkerTracer) host() int64 { return int64(time.Since(w.tr.start)) }

// TxnBegin opens a transaction scope at virtual time start. The sampling
// decision is made here (head sampling); span recording continues regardless
// so that exemplar capture can keep the full stack of slow and aborted
// transactions even when they are not sampled.
func (w *WorkerTracer) TxnBegin(tid, start uint64) {
	if w == nil {
		return
	}
	w.active = true
	w.sampled = w.txns%uint64(w.tr.opt.Sample) == 0
	w.txns++
	w.txnStart = start
	w.txnTID = tid
	w.cur = w.cur[:0]
}

// TxnEnd closes the transaction scope at virtual time end. committed
// transactions pass reason -1; aborted ones pass the taxonomy reason.
func (w *WorkerTracer) TxnEnd(end uint64, reason int) {
	if w == nil || !w.active {
		return
	}
	w.active = false
	ab := int16(0)
	if reason >= 0 {
		ab = int16(reason) + 1
	}
	w.cur = append(w.cur, Event{
		Kind: EvTxn, Start: w.txnStart, End: end, Host: w.host(),
		TID: w.txnTID, Arg: w.txnTID, Abort: ab, Worker: w.worker,
	})
	if w.sampled {
		for i := range w.cur {
			w.push(w.cur[i])
		}
	}
	if reason >= 0 {
		w.keepAborted(end, reason)
	}
	w.keepSlow(end, reason)
}

// Span records a span event [start, end] of the given kind.
func (w *WorkerTracer) Span(kind EventKind, start, end, arg, arg2 uint64) {
	if w == nil {
		return
	}
	w.record(Event{
		Kind: kind, Start: start, End: end, Host: w.host(),
		TID: w.txnTID, Arg: arg, Arg2: arg2, Worker: w.worker,
	})
}

// Instant records a zero-duration event at virtual time at.
func (w *WorkerTracer) Instant(kind EventKind, at, arg, arg2 uint64) {
	w.Span(kind, at, at, arg, arg2)
}

// PhaseSeg records one closed PhaseTimer segment (called from PhaseTimer.To
// and Finish when a trace is attached). Zero-length segments are dropped.
func (w *WorkerTracer) PhaseSeg(p Phase, start, end uint64) {
	if w == nil || start == end {
		return
	}
	w.record(Event{
		Kind: EvPhase, Phase: p, Start: start, End: end, Host: w.host(),
		TID: w.txnTID, Worker: w.worker,
	})
}

func (w *WorkerTracer) record(e Event) {
	if w.active {
		w.cur = append(w.cur, e)
		return
	}
	// Outside a transaction (recovery, micro loops): straight to the ring,
	// unconditionally — there is no txn to sample.
	w.push(e)
}

// push appends to the bounded ring, overwriting oldest events once full.
func (w *WorkerTracer) push(e Event) {
	if len(w.ring) < cap(w.ring) {
		w.ring = append(w.ring, e)
		return
	}
	w.ring[w.ringN] = e
	w.ringN++
	if w.ringN == len(w.ring) {
		w.ringN = 0
	}
	w.dropped++
}

// keepSlow admits the finished transaction to the slowest-K store if it
// beats the current minimum (linear scan; K is small).
func (w *WorkerTracer) keepSlow(end uint64, reason int) {
	dur := end - w.txnStart
	if len(w.slow) < cap(w.slow) {
		w.slow = append(w.slow, w.exemplar(end, reason))
		return
	}
	min := 0
	for i := 1; i < len(w.slow); i++ {
		if w.slow[i].Dur() < w.slow[min].Dur() {
			min = i
		}
	}
	if dur > w.slow[min].Dur() {
		ex := &w.slow[min]
		w.fillExemplar(ex, end, reason)
	}
}

// keepAborted appends the aborted transaction to the bounded exemplar ring.
func (w *WorkerTracer) keepAborted(end uint64, reason int) {
	ex := &w.aborted[w.abortN]
	w.fillExemplar(ex, end, reason)
	w.abortN++
	if w.abortN == len(w.aborted) {
		w.abortN = 0
	}
	if w.abortLen < len(w.aborted) {
		w.abortLen++
	}
}

func (w *WorkerTracer) exemplar(end uint64, reason int) Exemplar {
	var ex Exemplar
	w.fillExemplar(&ex, end, reason)
	return ex
}

// fillExemplar overwrites ex with the current transaction, reusing ex's
// event slice to stay allocation-free once the stores have warmed up.
func (w *WorkerTracer) fillExemplar(ex *Exemplar, end uint64, reason int) {
	ex.Worker = int(w.worker)
	ex.TID = w.txnTID
	ex.Start = w.txnStart
	ex.End = end
	ex.Abort = ""
	if reason >= 0 {
		ex.Abort = AbortReason(reason).String()
	}
	ex.Events = append(ex.Events[:0], w.cur...)
}

// TxnElapsed returns the active transaction's virtual duration so far, or
// 0 when no transaction is open. Observatory exemplar admission uses it to
// decide whether a capture is worth the copy.
func (w *WorkerTracer) TxnElapsed(now uint64) uint64 {
	if w == nil || !w.active {
		return 0
	}
	return now - w.txnStart
}

// CaptureCurrent fills ex with the active transaction's span stack so far —
// the observatory's slowest-exemplar capture, taken mid-transaction at a
// conflict site rather than at TxnEnd. ex's event slice is reused, keeping
// repeated captures allocation-free. Reports false when no transaction is
// open (or w is nil), leaving ex untouched.
func (w *WorkerTracer) CaptureCurrent(ex *Exemplar, end uint64, reason string) bool {
	if w == nil || !w.active {
		return false
	}
	ex.Worker = int(w.worker)
	ex.TID = w.txnTID
	ex.Start = w.txnStart
	ex.End = end
	ex.Abort = reason
	ex.Events = append(ex.Events[:0], w.cur...)
	return true
}

// TraceDump is the quiescent read-out of a Tracer: every worker's ring
// merged (oldest first per worker), plus the exemplar stores. It is the
// value carried on bench.Result and consumed by the exporters.
type TraceDump struct {
	// Sample is the head-sampling rate the trace ran with.
	Sample int `json:"sample"`
	// Workers is the worker count (Perfetto track layout).
	Workers int `json:"workers"`
	// Events is every sampled/ambient event, ordered per worker.
	Events []Event `json:"events"`
	// Slow is the merged slowest-K exemplars, slowest first.
	Slow []Exemplar `json:"slow,omitempty"`
	// Aborted is every captured aborted-transaction exemplar.
	Aborted []Exemplar `json:"aborted,omitempty"`
	// Dropped counts ring overwrites across all workers (0 = lossless).
	Dropped uint64 `json:"dropped,omitempty"`
}

// Dump assembles the trace. It must only be called while the traced workers
// are quiescent (between benchmark phases, or after Wait) — the same
// contract as reading sim.Clock or PhaseSet.
func (t *Tracer) Dump() *TraceDump {
	if t == nil {
		return nil
	}
	d := &TraceDump{Sample: t.opt.Sample, Workers: len(t.workers)}
	for i := range t.workers {
		w := &t.workers[i]
		// Ring contents oldest-first: [ringN:] then [:ringN] once wrapped.
		if len(w.ring) == cap(w.ring) && w.ringN != 0 {
			d.Events = append(d.Events, w.ring[w.ringN:]...)
			d.Events = append(d.Events, w.ring[:w.ringN]...)
		} else {
			d.Events = append(d.Events, w.ring...)
		}
		d.Dropped += w.dropped
		for j := range w.slow {
			d.Slow = append(d.Slow, cloneExemplar(&w.slow[j]))
		}
		for j := 0; j < w.abortLen; j++ {
			d.Aborted = append(d.Aborted, cloneExemplar(&w.aborted[j]))
		}
	}
	sortExemplarsByDur(d.Slow)
	return d
}

func cloneExemplar(ex *Exemplar) Exemplar {
	out := *ex
	out.Events = append([]Event(nil), ex.Events...)
	return out
}

func sortExemplarsByDur(exs []Exemplar) {
	// Insertion sort, slowest first — the lists are tiny (K per worker).
	for i := 1; i < len(exs); i++ {
		for j := i; j > 0 && exs[j].Dur() > exs[j-1].Dur(); j-- {
			exs[j], exs[j-1] = exs[j-1], exs[j]
		}
	}
}
