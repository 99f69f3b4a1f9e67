// Command perfbench is Falcon's host-time benchmark. It runs one named
// workload from a seed, checks the program's outputs against its own model,
// and prints every metric by name and unit. The last line of standard
// output is the result:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured untraced.
// With --trace 1 they are the per-layer ones, from a run whose 0.5 s
// windows alternate between untraced and recording spans (the throughput
// difference is bench.trace_overhead).
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload ycsb-a-zipf-fit --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh compare base.out head.out
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workers is the engine worker count and, for serve-kv, the client
// connection count: load stays within the 2-vCPU host the bounds were set
// on.
const workers = 2

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// endToEnd lists the untraced metrics (BENCHMARK.json "end_to_end").
var endToEnd = []struct{ name, unit string }{
	{"ops_per_s", "1/s"},
	{"op_p50_us", "us"},
	{"op_p99_us", "us"},
	{"setup_s", "s"},
	{"mem_peak_mb", "MB"},
}

// perLayer lists the traced metrics (BENCHMARK.json "per_layer"). Every
// workload reports every name; a layer a workload does not exercise reads 0.
var perLayer = []struct{ name, unit string }{
	{"core.run_us", "us"},
	{"core.read_us", "us"},
	{"core.update_us", "us"},
	{"core.run_self_us", "us"},
	{"core.attempts_per_op", "count/op"},
	{"core.retry_share", "ratio"},
	{"cc.abort_ratio", "ratio"},
	{"cc.aborts.lock-conflict_per_op", "count/op"},
	{"cc.aborts.validation_per_op", "count/op"},
	{"pmem.cache_hit_ratio", "ratio"},
	{"pmem.cache_misses_per_op", "count/op"},
	{"pmem.media_reads_per_op", "count/op"},
	{"pmem.media_writes_per_op", "count/op"},
	{"pmem.write_amp", "ratio"},
	{"pmem.partial_write_share", "ratio"},
	{"pmem.xpb_merges_per_op", "count/op"},
	{"pmem.dirty_evictions_per_op", "count/op"},
	{"pmem.clwb_per_op", "count/op"},
	{"pmem.probe_read_hit_ns", "ns"},
	{"pmem.probe_read_miss_ns", "ns"},
	{"pmem.probe_write_miss_ns", "ns"},
	{"pmem.probe_write_clwb_ns", "ns"},
	{"core.hot_hit_ratio", "ratio"},
	{"wal.bytes_per_op", "B/op"},
	{"wal.wraps_per_op", "count/op"},
	{"wal.overflows_per_op", "count/op"},
	{"index.probes_per_op", "count/op"},
	{"server.roundtrip_p50_us", "us"},
	{"server.roundtrip_p99_us", "us"},
	{"server.handler_us", "us"},
	{"server.transport_us", "us"},
	{"server.apply_us", "us"},
	{"server.http_us", "us"},
	{"server.replay_share", "ratio"},
	{"server.shed_per_op", "count/op"},
	{"server.expired_per_op", "count/op"},
	{"server.est_service_us", "us"},
	{"go.allocs_per_op", "count/op"},
	{"go.alloc_bytes_per_op", "B/op"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms", "ms"},
	{"core.new_s", "s"},
	{"core.load_s", "s"},
	{"pmem.crash_s", "s"},
	{"core.recover_s", "s"},
	{"sim.vtxn_per_s", "1/s"},
	{"sim.phase_share.exec", "ratio"},
	{"sim.phase_share.cc", "ratio"},
	{"sim.phase_share.log-append", "ratio"},
	{"sim.phase_share.heap-write", "ratio"},
	{"sim.phase_share.index-update", "ratio"},
	{"sim.phase_share.flush", "ratio"},
	{"sim.phase_share.abort", "ratio"},
	{"bench.trace_overhead", "ratio"},
}

// runSlack bounds set-up, checks and probes: a run that has not ended this
// long after its timed phase would have ended is stopped as failed.
const runSlack = 120 * time.Second

// runConfig is one invocation.
type runConfig struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	traceOut string
	t0       time.Time // process start of the workload
}

// duration is the timed phase length.
func (c runConfig) duration() time.Duration { return time.Duration(c.seconds) * time.Second }

// outcome is what a workload run reports.
type outcome struct {
	attempted, failed uint64
	samples           uint64
	digest            string
	checkErrs         []string // first few failure messages
	metrics           metrics
}

// checkFailed counts an output check that failed outside any timed
// operation.
func (o *outcome) checkFailed(err error) {
	o.failed++
	o.attempted++
	o.note(err)
}

// addPhase folds a timed phase's operations and failures into o.
func (o *outcome) addPhase(st phaseStats, errs []error) {
	o.attempted += st.attempted
	o.samples += st.samples
	o.failed += st.failed
	for _, err := range errs {
		o.note(err)
	}
}

// note keeps the first few failure messages for the report.
func (o *outcome) note(err error) {
	if len(o.checkErrs) < 8 {
		o.checkErrs = append(o.checkErrs, err.Error())
	}
}

// workload is one named input set.
type workload interface {
	run(c runConfig) (*outcome, error)
}

var workloads = map[string]workload{
	"ycsb-a-uniform-big": ycsbWorkload{rows: 100_000},
	"ycsb-a-zipf-fit":    ycsbWorkload{rows: 1024, zipf: true},
	"serve-kv":           serveWorkload{rows: 100_000},
}

func main() {
	t0 := time.Now()
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compareMain(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			os.Exit(2)
		}
		return
	}
	c := runConfig{t0: t0}
	flag.StringVar(&c.workload, "workload", "", "workload name")
	flag.Uint64Var(&c.seed, "seed", 1, "input seed")
	flag.IntVar(&c.seconds, "seconds", 10, "timed phase length in seconds")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	flag.StringVar(&c.traceOut, "trace-out", "", "span file of a traced run (default .bench_build/trace/<workload>-<seed>.jsonl)")
	flag.Parse()
	c.trace = *trace == 1
	wl, ok := workloads[c.workload]
	if !ok || c.seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds >= 1, --trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if c.traceOut == "" {
		c.traceOut = filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-%d.jsonl", c.workload, c.seed))
	}
	// A run that hangs fails instead of outliving its caller's time limit.
	time.AfterFunc(c.duration()+runSlack, func() {
		fmt.Fprintf(os.Stderr, "perfbench: %s did not finish within %v\n", c.workload, c.duration()+runSlack)
		os.Exit(1)
	})
	out, err := wl.run(c)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := report(os.Stdout, c, out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// reportLine is the stamped record of one run, printed before the result
// line; compare reads it back.
type reportLine struct {
	Schema      string      `json:"schema"`
	Fingerprint fingerprint `json:"fingerprint"`
	Workload    string      `json:"workload"`
	Seed        uint64      `json:"seed"`
	Seconds     int         `json:"seconds"`
	Trace       bool        `json:"trace"`
	Digest      string      `json:"stream_digest"`
	Samples     uint64      `json:"samples"`
	FailRatio   float64     `json:"fail_ratio"`
	Metrics     metrics     `json:"metrics"`
}

const reportSchema = "falcon/perfbench/v1"

func report(w *os.File, c runConfig, out *outcome) error {
	fp, err := hostFingerprint()
	if err != nil {
		return err
	}
	want := endToEnd
	if c.trace {
		want = perLayer
	}
	for _, m := range want {
		got, ok := out.metrics[m.name]
		if !ok || got.Unit != m.unit {
			return fmt.Errorf("workload %s did not report %s [%s]", c.workload, m.name, m.unit)
		}
	}
	if len(out.metrics) != len(want) {
		return fmt.Errorf("workload %s reported %d metrics, want %d", c.workload, len(out.metrics), len(want))
	}
	if out.attempted == 0 {
		return errors.New("no operation was attempted")
	}
	failRatio := float64(out.failed) / float64(out.attempted)
	fmt.Fprintf(w, "host: %s | nproc %d | GOMAXPROCS %d | %s | commit %s | source %s\n",
		fp.CPU, fp.NProc, fp.GOMAXPROCS, fp.Go, fp.Commit, fp.Source)
	fmt.Fprintf(w, "workload %s seed %d: stream digest %s, %d latency samples\n", c.workload, c.seed, out.digest, out.samples)
	for _, m := range want {
		fmt.Fprintf(w, "  %-34s %16.6g %s\n", m.name, out.metrics[m.name].Value, m.unit)
	}
	fmt.Fprintf(w, "  %-34s %16.6g ratio (%d of %d operations)\n", "fail_ratio", failRatio, out.failed, out.attempted)
	for _, e := range out.checkErrs {
		fmt.Fprintln(w, "  check failed:", e)
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(reportLine{
		Schema: reportSchema, Fingerprint: fp, Workload: c.workload, Seed: c.seed,
		Seconds: c.seconds, Trace: c.trace, Digest: out.digest, Samples: out.samples,
		FailRatio: failRatio, Metrics: out.metrics,
	}); err != nil {
		return err
	}
	return enc.Encode(struct {
		Correct   bool    `json:"correct"`
		Attempted uint64  `json:"attempted"`
		Failed    uint64  `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{out.failed == 0, out.attempted, out.failed, out.metrics})
}

// setEndToEnd sets the metrics of an untraced timed phase; the peak
// resident set is read as the phase ends.
func setEndToEnd(m metrics, st phaseStats) error {
	mem, err := peakRSSMB()
	if err != nil {
		return err
	}
	m.set("ops_per_s", "1/s", st.opsPerSec)
	m.set("op_p50_us", "us", st.p50us)
	m.set("op_p99_us", "us", st.p99us)
	m.set("mem_peak_mb", "MB", mem)
	return nil
}

// goStats is a runtime counter sample.
type goStats struct {
	mallocs, bytes uint64
	gcs            uint32
	pauseNs        uint64
}

func readGoStats() goStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return goStats{ms.Mallocs, ms.TotalAlloc, ms.NumGC, ms.PauseTotalNs}
}

// goLayers sets the go.* metrics for a phase of ops operations.
func goLayers(m metrics, before, after goStats, ops uint64) {
	n := float64(max(ops, 1))
	m.set("go.allocs_per_op", "count/op", float64(after.mallocs-before.mallocs)/n)
	m.set("go.alloc_bytes_per_op", "B/op", float64(after.bytes-before.bytes)/n)
	m.set("go.gc_cycles", "count", float64(after.gcs-before.gcs))
	m.set("go.gc_pause_ms", "ms", float64(after.pauseNs-before.pauseNs)/1e6)
}

// setupTimes is one set-up: all of it, and the engine-creation and load
// parts.
type setupTimes struct{ total, newEngine, load time.Duration }

// A run sets its workload up at least minSetups times, and goes on until
// the set-ups add up to setupBudget or it has made maxSetups of them, so a
// set-up of a few milliseconds still gives a steady median. All but the
// last set-up are torn down.
const (
	minSetups   = 5
	maxSetups   = 51
	setupBudget = time.Second
)

// repeatSetup builds the workload repeatedly and keeps the last set-up. The
// first set-up is timed from the process start of the workload.
func repeatSetup[T any](t0 time.Time, build func() (T, setupTimes, error), discard func(T) error) (T, []setupTimes, error) {
	var times []setupTimes
	var spent time.Duration
	for start := t0; ; start = time.Now() {
		env, st, err := build()
		if err != nil {
			return env, nil, fmt.Errorf("setup: %w", err)
		}
		st.total = time.Since(start)
		times = append(times, st)
		spent += st.total
		if len(times) >= maxSetups || (len(times) >= minSetups && spent >= setupBudget) {
			runtime.GC() // collect the set-ups' garbage before anything is timed
			return env, times, nil
		}
		if err := discard(env); err != nil {
			return env, nil, fmt.Errorf("setup teardown: %w", err)
		}
		runtime.GC()
	}
}

// setupLayers sets setup_s (end-to-end) or core.new_s/core.load_s.
func setupLayers(m metrics, times []setupTimes, trace bool) {
	var total, nw, ld []time.Duration
	for _, t := range times {
		total, nw, ld = append(total, t.total), append(nw, t.newEngine), append(ld, t.load)
	}
	if trace {
		m.set("core.new_s", "s", medianDur(nw))
		m.set("core.load_s", "s", medianDur(ld))
		return
	}
	m.set("setup_s", "s", medianDur(total))
}

// zeroLayers fills every per-layer metric a workload did not set with 0.
func zeroLayers(m metrics) {
	for _, pl := range perLayer {
		if _, ok := m[pl.name]; !ok {
			m.set(pl.name, pl.unit, 0)
		}
	}
}
