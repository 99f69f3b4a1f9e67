package core

import (
	"testing"

	"falcon/internal/index"
	"falcon/internal/layout"
	"falcon/internal/pmem"
)

// The 1 KiB hit path: the Falcon preset in eADR mode on the per-commit
// path, two workers, 1,024 rows of 1 KiB that fit the 2.5 MiB simulated
// cache — the engine side of the ycsb-a-zipf-fit host benchmark.
const (
	hitRows     = 1024
	hitRowBytes = 1024
)

func newHitPathEngine(tb testing.TB) *Engine {
	tb.Helper()
	cfg := FalconConfig()
	cfg.Threads = 2
	schema := layout.NewSchema(
		layout.Column{Name: "k", Kind: layout.Uint64},
		layout.Column{Name: "fill", Kind: layout.Bytes, Size: hitRowBytes - 8},
	)
	sys := pmem.NewSystem(pmem.Config{Mode: pmem.EADR, DeviceBytes: 64 << 20, CacheBytes: 5 << 19})
	e, err := New(sys, cfg, []TableSpec{{
		Name: "kv", Schema: schema, Capacity: 2 * hitRows, KeyCol: 0, IndexKind: index.Hash,
	}})
	if err != nil {
		tb.Fatal(err)
	}
	tbl := e.Table("kv")
	row := make([]byte, hitRowBytes)
	for k := uint64(0); k < hitRows; k++ {
		slot, err := tbl.Heap().Alloc(nil, int(k%2), 0)
		if err != nil {
			tb.Fatal(err)
		}
		schema.PutUint64(row, 0, k)
		tbl.Heap().BulkInstall(slot, 0, row)
		if err := tbl.BulkIndexInsert(k, slot); err != nil {
			tb.Fatal(err)
		}
	}
	return e
}

// hitPathOps returns a blind 1 KiB update and a 1 KiB read of row *key,
// built once so calling them allocates nothing of their own.
func hitPathOps(e *Engine, key *uint64) (update, read func(*Txn) error) {
	tbl := e.Table("kv")
	wbuf, rbuf := make([]byte, hitRowBytes), make([]byte, hitRowBytes)
	update = func(tx *Txn) error {
		tbl.Schema().PutUint64(wbuf, 0, *key)
		return tx.Update(tbl, *key, 0, wbuf)
	}
	read = func(tx *Txn) error { return tx.Read(tbl, *key, rbuf) }
	return update, read
}

// TestHitPathAllocFree guards the per-commit hit path against host
// allocations: once warm, Engine.Run of a 1 KiB update and Engine.RunRO of
// a 1 KiB read allocate nothing.
func TestHitPathAllocFree(t *testing.T) {
	e := newHitPathEngine(t)
	var key uint64
	update, read := hitPathOps(e, &key)
	for _, c := range []struct {
		name string
		run  func() error
	}{
		{"Run update", func() error { return e.Run(0, update) }},
		{"RunRO read", func() error { return e.RunRO(0, read) }},
	} {
		var err error
		step := func() {
			key = (key + 7) % hitRows
			if e := c.run(); e != nil && err == nil {
				err = e
			}
		}
		for i := 0; i < 2*hitRows; i++ {
			step() // warm: every row touched, buffers grown
		}
		n := testing.AllocsPerRun(500, step)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if n != 0 {
			t.Errorf("%s allocates %v times per call, want 0", c.name, n)
		}
	}
}

// BenchmarkRunUpdate1K and BenchmarkRunRead1K are the core rungs of the
// host-cost ladder for the hit path: one Engine.Run / RunRO per op.
func BenchmarkRunUpdate1K(b *testing.B) {
	e := newHitPathEngine(b)
	var key uint64
	update, _ := hitPathOps(e, &key)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key = uint64(i*7) % hitRows
		if err := e.Run(0, update); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunRead1K(b *testing.B) {
	e := newHitPathEngine(b)
	var key uint64
	_, read := hitPathOps(e, &key)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key = uint64(i*7) % hitRows
		if err := e.RunRO(0, read); err != nil {
			b.Fatal(err)
		}
	}
}
