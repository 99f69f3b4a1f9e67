package obs

import (
	"encoding/json"
	"runtime"
	"sync"
	"testing"

	"falcon/internal/pmem"
)

func testContendConfig(workers int) ContendConfig {
	return ContendConfig{
		Workers: workers,
		Algo:    "2PL",
		Tables:  []string{"kv", "aux"},
		Banks:   8,
	}
}

// drive replays worker w's deterministic event stream into its recorder.
// The same function serves the concurrent hammer and the serial replay, so
// any divergence between the two reports is a merge bug, not a stream bug.
func drive(o *Observatory, w, events int) {
	rec := Probe{ContendShard: o.Worker(w)}
	state := uint64(w)*0x9E3779B97F4A7C15 + 1
	rng := func() uint64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return state
	}
	for i := 0; i < events; i++ {
		table := int(rng() % 2)
		key := rng() % 64 // small key space: popularity buckets fill up
		rec.Touch(table, key)
		switch rng() % 5 {
		case 0:
			rec.Conflict(table, key, key, ConflictLockFail, int(rng()%4), 0, uint64(i))
		case 1:
			rec.Conflict(table, key, key, ConflictTSOrder, -1, 0, uint64(i))
		case 2:
			rec.Conflict(table, key, key, ConflictSpinWait, int(rng()%4), rng()%1000, uint64(i))
		case 3:
			o.PmemEvent(uint64(w), pmem.EventKind(rng()%5), rng()%(1<<20), 0, 0)
		case 4:
			rec.LogicalBytes(uint64(table), rng()%256)
		}
	}
	rec.WALFlushLines(uint64(w) + 1)
	rec.WALGroupWaitNanos(uint64(w) * 100)
}

// TestConcurrentMergeEqualsSerialReplay hammers the sharded recorders from
// GOMAXPROCS goroutines and checks the merged report is byte-identical to a
// serial replay of the same per-worker streams — the single-owner shard
// discipline holds and the merge is order-independent.
func TestConcurrentMergeEqualsSerialReplay(t *testing.T) {
	workers := runtime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4
	}
	const events = 20000

	conc := NewObservatory(testContendConfig(workers))
	conc.AddRange("kv", 0, 1<<19)
	conc.AddRange("aux", 1<<19, 1<<20)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			drive(conc, w, events)
		}(w)
	}
	wg.Wait()

	serial := NewObservatory(testContendConfig(workers))
	serial.AddRange("kv", 0, 1<<19)
	serial.AddRange("aux", 1<<19, 1<<20)
	for w := 0; w < workers; w++ {
		drive(serial, w, events)
	}

	got, err := json.Marshal(conc.Report())
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(serial.Report())
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("concurrent merge diverged from serial replay:\nconcurrent: %.400s\nserial:     %.400s", got, want)
	}
	if conc.Report().TotalConflicts() == 0 {
		t.Fatal("hammer recorded no conflicts; the test drove nothing")
	}
}

// TestPopularityBuckets checks the log2 bucketing: a key touched 2^k times
// lands in bucket k+1 and an untouched key in bucket 0.
func TestPopularityBuckets(t *testing.T) {
	o := NewObservatory(testContendConfig(1))
	w := o.Worker(0)
	for i := 0; i < 8; i++ { // 8 = 2^3 touches → bits.Len32(8) = 4
		w.Touch(0, 42)
	}
	if got := w.popBucket(0, 42); got != 4 {
		t.Fatalf("popBucket(touched 8×) = %d, want 4", got)
	}
	if got := w.popBucket(0, 999); got != 0 {
		t.Fatalf("popBucket(untouched) = %d, want 0", got)
	}
}

// TestReportShape checks the merged report carries every section a driven
// observatory should produce, with attribution rows sorted by count.
func TestReportShape(t *testing.T) {
	o := NewObservatory(testContendConfig(2))
	o.AddRange("kv", 0, 1<<16)
	w0, w1 := Probe{ContendShard: o.Worker(0)}, Probe{ContendShard: o.Worker(1)}

	for i := 0; i < 10; i++ {
		w0.Touch(0, 7)
	}
	for i := 0; i < 10; i++ {
		w0.Conflict(0, 7, 7, ConflictLockFail, 1, 0, uint64(i))
	}
	w1.Conflict(1, 3, 3, ConflictValidation, 0, 0, 1)
	o.PmemEvent(0, pmem.EvClwbLine, 128, 0, 0)
	o.PmemEvent(1, pmem.EvXPEvictFull, 512, 0, 0)
	w0.LogicalBytes(0, 100)
	o.BarrierTick()
	o.BarrierTick()

	c := o.Report()
	if c.Algo != "2PL" {
		t.Fatalf("algo = %q", c.Algo)
	}
	if len(c.Attribution) != 2 {
		t.Fatalf("attribution rows = %d, want 2", len(c.Attribution))
	}
	top := c.Attribution[0]
	if top.Table != "kv" || top.Kind != "lock-fail" || top.Conflicts != 10 {
		t.Fatalf("top row = %+v", top)
	}
	if top.PopBucket == 0 {
		t.Fatal("hot key attributed to the never-seen popularity bucket")
	}
	if c.Heat == nil || c.Heat.Buckets == 0 {
		t.Fatal("missing heat dump")
	}
	if len(c.FlushAmp) == 0 || c.FlushAmp[0].Table != "kv" {
		t.Fatalf("flush-amp rows = %+v", c.FlushAmp)
	}
	if c.FlushAmp[0].LogicalBytes != 100 || c.FlushAmp[0].ClwbLines != 1 {
		t.Fatalf("flush-amp cell = %+v", c.FlushAmp[0])
	}
	if len(c.BankEvictions) != 8 || c.SetContention.Count != 8 {
		t.Fatalf("set contention: banks %d hist count %d", len(c.BankEvictions), c.SetContention.Count)
	}
	wf := c.WaitFor
	if wf == nil || wf.Rounds != 2 {
		t.Fatalf("wait-for = %+v", wf)
	}
	// w0→w1 and w1→w0 form a 2-cycle.
	if len(wf.Edges) != 2 || len(wf.Cycles) != 1 {
		t.Fatalf("edges %d cycles %d", len(wf.Edges), len(wf.Cycles))
	}
	if wf.Hot[0].Worker != 1 || wf.Hot[0].In != 10 {
		t.Fatalf("hot vertex = %+v", wf.Hot[0])
	}
}
