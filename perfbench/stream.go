package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
)

// Every input the benchmark sends — YCSB keys, Zipfian draws, update
// stamps, request bodies, idempotency keys — comes from these generators.
// A worker's stream is a pure function of (seed, worker): it never depends
// on timing, on other workers, or on what the engine returned.

// mix is the splitmix64 finalizer.
func mix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// rng is a splitmix64 sequence.
type rng struct{ s uint64 }

func newRNG(seed uint64, worker int, salt uint64) rng {
	return rng{s: mix(seed ^ mix(uint64(worker)^salt))}
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	return mix(r.s)
}

// float01 returns a uniform draw in [0, 1).
func (r *rng) float01() float64 { return float64(r.next()>>11) / (1 << 53) }

// zipf draws ranks in [0, n) with skew theta by the Gray et al. method (the
// standard YCSB generator), then scatters ranks over the key space so that
// hotness does not follow key order.
type zipf struct {
	n                  uint64
	theta, alpha, zeta float64
	eta, half          float64
}

func newZipf(n uint64, theta float64) *zipf {
	var zn float64
	for i := uint64(1); i <= n; i++ {
		zn += 1 / math.Pow(float64(i), theta)
	}
	z2 := 1 + 1/math.Pow(2, theta)
	return &zipf{
		n: n, theta: theta, alpha: 1 / (1 - theta), zeta: zn,
		eta:  (1 - math.Pow(2/float64(n), 1-theta)) / (1 - z2/zn),
		half: 1 + math.Pow(0.5, theta),
	}
}

func (z *zipf) key(r *rng) uint64 {
	u := r.float01()
	uz := u * z.zeta
	var rank uint64
	switch {
	case uz < 1:
		rank = 0
	case uz < z.half:
		rank = 1
	default:
		rank = uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
		if rank >= z.n {
			rank = z.n - 1
		}
	}
	return mix(rank) % z.n
}

// ycsbOp is one YCSB-A operation: a full-row read or a blind full-row
// update of key. Stamp identifies the update's row image (0 for reads).
type ycsbOp struct {
	update bool
	key    uint64
	stamp  uint64
}

// ycsbGen is one worker's YCSB-A stream: half reads, half updates, keys
// uniform or Zipfian over rows.
type ycsbGen struct {
	r      rng
	rows   uint64
	z      *zipf // nil for uniform keys
	worker int
	seq    uint64
}

func newYCSBGen(seed uint64, worker int, rows uint64, z *zipf) *ycsbGen {
	return &ycsbGen{r: newRNG(seed, worker, 0x59435342), rows: rows, z: z, worker: worker}
}

func (g *ycsbGen) next() ycsbOp {
	op := ycsbOp{update: g.r.next()&1 == 1}
	if g.z != nil {
		op.key = g.z.key(&g.r)
	} else {
		op.key = g.r.next() % g.rows
	}
	if op.update {
		g.seq++
		op.stamp = uint64(g.worker+1)<<48 | g.seq
	}
	return op
}

// Serve op kinds.
const (
	opAdd    = iota // fresh add under a new idempotency key
	opGet           // read-only get
	opResend        // the worker's previous add, re-sent verbatim
)

// serveOp is one request of a serve-kv client.
type serveOp struct {
	kind  int
	key   uint64
	delta int64
	idem  uint64 // idempotency key (adds and re-sends)
}

// serveGen is one client connection's request stream: ~50% fresh adds, ~45%
// gets, ~5% re-sends of the connection's latest add. A re-send always
// targets an add the closed loop has already seen answered.
type serveGen struct {
	r       rng
	rows    uint64
	worker  int
	seq     uint64
	lastAdd serveOp
	hasAdd  bool
}

func newServeGen(seed uint64, worker int, rows uint64) *serveGen {
	return &serveGen{r: newRNG(seed, worker, 0x4B56), rows: rows, worker: worker}
}

// idemKeyBase keeps each connection's idempotency keys disjoint.
func idemKeyBase(worker int) uint64 { return uint64(worker+1) << 48 }

func (g *serveGen) next() serveOp {
	roll := g.r.next() % 100
	key := g.r.next() % g.rows
	switch {
	case roll < 5 && g.hasAdd:
		op := g.lastAdd
		op.kind = opResend
		return op
	case roll < 55:
		g.seq++
		op := serveOp{kind: opAdd, key: key, delta: int64(1 + g.r.next()%100), idem: idemKeyBase(g.worker) | g.seq}
		g.lastAdd, g.hasAdd = op, true
		return op
	default:
		return serveOp{kind: opGet, key: key}
	}
}

// digestOps is how many leading operations per worker streamDigest covers.
const digestOps = 1 << 14

// streamDigest hashes the first digestOps operations of each worker's
// stream, so two runs can show they sent the same inputs.
func streamDigest(ops func(worker int) func() []uint64, workers int) string {
	h := sha256.New()
	var b [8]byte
	for w := 0; w < workers; w++ {
		next := ops(w)
		for i := 0; i < digestOps; i++ {
			for _, v := range next() {
				binary.LittleEndian.PutUint64(b[:], v)
				h.Write(b[:])
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

func ycsbDigest(seed uint64, workers int, rows uint64, z *zipf) string {
	return streamDigest(func(w int) func() []uint64 {
		g := newYCSBGen(seed, w, rows, z)
		return func() []uint64 {
			op := g.next()
			u := uint64(0)
			if op.update {
				u = 1
			}
			return []uint64{u, op.key, op.stamp}
		}
	}, workers)
}

func serveDigest(seed uint64, workers int, rows uint64) string {
	return streamDigest(func(w int) func() []uint64 {
		g := newServeGen(seed, w, rows)
		return func() []uint64 {
			op := g.next()
			return []uint64{uint64(op.kind), op.key, uint64(op.delta), op.idem}
		}
	}, workers)
}
