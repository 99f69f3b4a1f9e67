package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"falcon/internal/core"
	"falcon/internal/workload/ycsb"
)

// goldenCells pins the virtual output of three tiny fixed-seed YCSB-A cells:
// a free-running single-worker cell, a two-worker cell on the deterministic
// group scheduler, and the same cell with group commit. Host-only changes
// (data-structure layout, allocation, locking) must leave every simulated
// access in the same address, size and order, so the serialized Result —
// virtual time, latency histograms, pmem counters, phase nanos — must hash
// to the same value. A change that deliberately alters the model updates
// the hashes and says why.
var goldenCells = []struct {
	name    string
	threads int
	par     bool
	group   bool
	sha256  string
}{
	{"single-thread", 1, false, false, "a5dd261015c0d9982251ff2e8dbb9aab08517f91f1725b3e5eb9bb6b6542f294"},
	{"parworkers-2", 2, true, false, "cea8a7086aa99c1b24b4ea1c2b196a24fe2f105e58c954d699e9ad146913f1ee"},
	{"parworkers-2+gc", 2, true, true, "70f2055af7d1daf2718a2fc5fe7460720bc8538c2d0f364119e352d81d859a17"},
}

// runGoldenCell runs one golden cell and returns its Result as JSON. The
// single-worker cell spreads uniform keys over ~20 MB of rows so the miss,
// eviction and write-back paths all run; the two-worker cells use a skewed
// ~1 MB key space so transactions conflict, abort and retry.
func runGoldenCell(t *testing.T, threads int, par, group bool) []byte {
	t.Helper()
	ecfg := core.FalconConfig()
	ecfg.Threads = threads
	ecfg.GroupCommit = group
	wcfg := ycsb.Config{Records: 20000, Workload: ycsb.A, Distribution: ycsb.Uniform}
	if threads > 1 {
		wcfg = ycsb.Config{Records: 1024, Workload: ycsb.A, Distribution: ycsb.Zipfian}
	}
	e, d, err := NewYCSB(ecfg, wcfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(e, "YCSB-A", Options{Workers: threads, TxnsPerWorker: 3000, WarmupPerWorker: 100, ParWorkers: par},
		func(w int) (int, error) { return 0, d.Next(w) })
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestGoldenVirtualOutput compares each golden cell's JSON hash with the
// recorded value.
func TestGoldenVirtualOutput(t *testing.T) {
	for _, c := range goldenCells {
		t.Run(c.name, func(t *testing.T) {
			sum := sha256.Sum256(runGoldenCell(t, c.threads, c.par, c.group))
			if got := hex.EncodeToString(sum[:]); got != c.sha256 {
				t.Errorf("virtual output hash = %s, want %s", got, c.sha256)
			}
		})
	}
}
