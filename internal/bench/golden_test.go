package bench

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"falcon/internal/core"
	"falcon/internal/obs"
	"falcon/internal/workload/ycsb"
)

// goldenCells pins the virtual output of four tiny fixed-seed YCSB-A cells:
// a free-running single-worker cell, a two-worker cell on the deterministic
// group scheduler, that cell with group commit, and that cell armed (below).
// Host-only changes (data-structure layout, allocation, locking) must leave
// every simulated access in the same address, size and order, so the
// serialized Result — virtual time, latency histograms, pmem counters,
// phase nanos — must hash to the same value. A change that deliberately
// alters the model updates the hashes and says why.
//
// The armed cell runs the two-worker cell with the tracer (every
// transaction sampled) and the contention observatory both on, and pins
// four outputs: the Result JSON, the Chrome trace, the Prometheus
// exposition, and the contention autopsy. Host timestamps are zeroed first;
// everything else in those outputs derives from virtual time.
var goldenCells = []struct {
	name    string
	threads int
	par     bool
	group   bool
	armed   bool
	sha256  []string
}{
	{"single-thread", 1, false, false, false, []string{"a5dd261015c0d9982251ff2e8dbb9aab08517f91f1725b3e5eb9bb6b6542f294"}},
	{"parworkers-2", 2, true, false, false, []string{"cea8a7086aa99c1b24b4ea1c2b196a24fe2f105e58c954d699e9ad146913f1ee"}},
	{"parworkers-2+gc", 2, true, true, false, []string{"70f2055af7d1daf2718a2fc5fe7460720bc8538c2d0f364119e352d81d859a17"}},
	{"parworkers-2+armed", 2, true, false, true, []string{
		"d051190d5319e25040ceddf0aceec818c835bc17d118e5a85d46c44857e79ceb",
		"7e5d5b80b0ad7b21304243c28490d4248462473aea1a9c410062cd97551151c0",
		"385c38ca006e451863b40d1522444ce34724879cf4e636560fe4fb51a8651bc9",
		"66fee730ae8376e204e4983298598cdd62374ead9a6fbe8cc04e3536c9e95e7c",
	}},
}

// goldenOutputs names the hashed outputs of a cell, in sha256 order.
var goldenOutputs = []string{"result JSON", "Chrome trace", "Prometheus", "autopsy"}

// runGoldenCell runs one golden cell and returns its outputs: the Result as
// JSON and, when armed, the Chrome trace, Prometheus exposition and
// contention autopsy. The single-worker cell spreads uniform keys over
// ~20 MB of rows so the miss, eviction and write-back paths all run; the
// two-worker cells use a skewed ~1 MB key space so transactions conflict,
// abort and retry.
func runGoldenCell(t *testing.T, threads int, par, group, armed bool) [][]byte {
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
	opts := Options{Workers: threads, TxnsPerWorker: 3000, WarmupPerWorker: 100, ParWorkers: par}
	if armed {
		opts.Trace = &obs.TraceOptions{Sample: 1}
		opts.Contend = true
	}
	res, err := Run(e, "YCSB-A", opts, func(w int) (int, error) { return 0, d.Next(w) })
	if err != nil {
		t.Fatal(err)
	}
	if armed {
		zeroHostTimes(res)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if !armed {
		return [][]byte{b}
	}
	var trace, prom bytes.Buffer
	if err := obs.WriteChromeTrace(&trace, []obs.NamedDump{{Label: "golden", Dump: res.Trace}}); err != nil {
		t.Fatal(err)
	}
	if err := obs.WritePrometheus(&prom, res.Obs, nil); err != nil {
		t.Fatal(err)
	}
	return [][]byte{b, trace.Bytes(), prom.Bytes(), []byte(res.Obs.Contend.Autopsy())}
}

// zeroHostTimes clears the host wall-clock stamp of every trace event in
// res: the ring, both exemplar stores, and the contention exemplars.
func zeroHostTimes(res *Result) {
	zero := func(evs []obs.Event) {
		for i := range evs {
			evs[i].Host = 0
		}
	}
	if d := res.Trace; d != nil {
		zero(d.Events)
		for i := range d.Slow {
			zero(d.Slow[i].Events)
		}
		for i := range d.Aborted {
			zero(d.Aborted[i].Events)
		}
	}
	if c := res.Obs.Contend; c != nil {
		for _, r := range c.Attribution {
			if r.Exemplar != nil {
				zero(r.Exemplar.Events)
			}
		}
	}
}

// TestGoldenVirtualOutput compares each golden cell's output hashes with
// the recorded values.
func TestGoldenVirtualOutput(t *testing.T) {
	for _, c := range goldenCells {
		t.Run(c.name, func(t *testing.T) {
			for i, out := range runGoldenCell(t, c.threads, c.par, c.group, c.armed) {
				sum := sha256.Sum256(out)
				if got := hex.EncodeToString(sum[:]); got != c.sha256[i] {
					t.Errorf("%s hash = %s, want %s", goldenOutputs[i], got, c.sha256[i])
				}
			}
		})
	}
}
