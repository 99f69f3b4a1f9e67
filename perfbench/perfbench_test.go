package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"falcon/internal/core"
)

func TestStreamDigestPinnedBySeed(t *testing.T) {
	z := newZipf(1024, 0.99)
	cases := []struct {
		name   string
		digest func(seed uint64) string
	}{
		{"ycsb-uniform", func(s uint64) string { return ycsbDigest(s, workers, 100_000, nil) }},
		{"ycsb-zipf", func(s uint64) string { return ycsbDigest(s, workers, 1024, z) }},
		{"serve", func(s uint64) string { return serveDigest(s, workers, 100_000) }},
	}
	for _, c := range cases {
		if a, b := c.digest(7), c.digest(7); a != b {
			t.Errorf("%s: seed 7 gave streams %s and %s", c.name, a, b)
		}
		if a, b := c.digest(7), c.digest(8); a == b {
			t.Errorf("%s: seeds 7 and 8 gave the same stream %s", c.name, a)
		}
	}
}

func TestWorkerStreamsDiffer(t *testing.T) {
	a, b := newYCSBGen(1, 0, 1000, nil), newYCSBGen(1, 1, 1000, nil)
	same := 0
	for i := 0; i < 100; i++ {
		if a.next().key == b.next().key {
			same++
		}
	}
	if same > 10 {
		t.Errorf("workers 0 and 1 drew the same key %d times in 100", same)
	}
}

func TestServeStreamResendsLastAdd(t *testing.T) {
	g := newServeGen(3, 1, 1000)
	var last serveOp
	resends := 0
	for i := 0; i < 10_000; i++ {
		op := g.next()
		switch op.kind {
		case opAdd:
			last = op
		case opResend:
			resends++
			if op.idem != last.idem || op.key != last.key || op.delta != last.delta {
				t.Fatalf("op %d re-sends %+v, last add was %+v", i, op, last)
			}
		}
	}
	if resends < 300 || resends > 700 {
		t.Errorf("%d re-sends in 10000 ops, want about 5%%", resends)
	}
}

func TestZipfSkew(t *testing.T) {
	z := newZipf(1024, 0.99)
	r := newRNG(1, 0, 0)
	counts := map[uint64]int{}
	for i := 0; i < 100_000; i++ {
		k := z.key(&r)
		if k >= 1024 {
			t.Fatalf("key %d out of range", k)
		}
		counts[k]++
	}
	top := 0
	for _, c := range counts {
		top = max(top, c)
	}
	if top < 5_000 {
		t.Errorf("hottest key drew %d of 100000, want a Zipfian head", top)
	}
}

func TestHistQuantile(t *testing.T) {
	var h hist
	for v := int64(1); v <= 100_000; v++ {
		h.add(v)
	}
	for _, q := range []float64{0.5, 0.99} {
		got, want := h.quantile(q), q*100_000
		if math.Abs(got-want)/want > 0.02 {
			t.Errorf("q%.2f = %.0f, want %.0f within 2%%", q, got, want)
		}
	}
}

// ycsbEngine sets up a small YCSB table, runs a few seeded operations and
// returns the engine and model.
func ycsbEngine(t *testing.T) (*ycsbEnv, *ycsbModel) {
	t.Helper()
	wl := ycsbWorkload{rows: 64}
	env, _, err := wl.setup()
	if err != nil {
		t.Fatal(err)
	}
	model := newYCSBModel(workers, wl.rows)
	for w := 0; w < workers; w++ {
		s := newYCSBWorker(w, env.e, newYCSBGen(5, w, wl.rows, nil), model.lastAck[w])
		if rec := s.runPhase(time.Now(), 20*time.Millisecond, false); rec.failed != 0 || s.ops == 0 {
			t.Fatalf("worker %d: %d ops, %d failed: %v", w, s.ops, rec.failed, s.err)
		}
	}
	return env, model
}

func recoveredRowCheck(t *testing.T, env *ycsbEnv, model *ycsbModel) *outcome {
	t.Helper()
	e2, err := crashRecover(metrics{}, false, env.e, env.cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := &outcome{}
	checkRows(e2, 64, model, out)
	return out
}

func TestRowCheckPassesAcknowledgedState(t *testing.T) {
	env, model := ycsbEngine(t)
	if out := recoveredRowCheck(t, env, model); out.failed != 0 {
		t.Fatalf("clean run failed checks: %v", out.checkErrs)
	}
}

func TestRowCheckCatchesTornRow(t *testing.T) {
	env, model := ycsbEngine(t)
	const key, stamp = 9, 1<<48 | 1_000_000
	torn := make([]byte, rowBytes)
	fillRow(torn, key, stamp)
	other := make([]byte, rowBytes)
	fillRow(other, key, stamp+1)
	copy(torn[rowBytes/2:], other[rowBytes/2:])
	tbl := env.e.Table(ycsbTable)
	if err := env.e.Run(0, func(tx *core.Txn) error { return tx.Update(tbl, key, 0, torn) }); err != nil {
		t.Fatal(err)
	}
	model.lastAck[0][key] = stamp
	out := recoveredRowCheck(t, env, model)
	if out.failed != 1 || !strings.Contains(strings.Join(out.checkErrs, "\n"), "torn image") {
		t.Fatalf("torn row: failed=%d %v, want one torn-image failure", out.failed, out.checkErrs)
	}
}

func TestRowCheckCatchesUnacknowledgedValue(t *testing.T) {
	env, model := ycsbEngine(t)
	// The model now expects key 3 to hold a write that never happened.
	model.lastAck[0][3], model.lastAck[1][3] = 1<<60, 0
	if out := recoveredRowCheck(t, env, model); out.failed != 1 {
		t.Fatalf("row check: failed=%d %v, want one failure for the changed key", out.failed, out.checkErrs)
	}
}

// serveRun boots a small server and sends one client's first n requests.
func serveRun(t *testing.T, n int) (*serveEnv, *serveClient) {
	t.Helper()
	wl := serveWorkload{rows: 1000}
	env, _, err := wl.setup()
	if err != nil {
		t.Fatal(err)
	}
	c := newServeClient(0, env.url, newServeGen(11, 0, wl.rows))
	t.Cleanup(c.client.CloseIdleConnections)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if _, _, err := c.do(c.gen.next(), t0); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	return env, c
}

func TestSumCheckCatchesOffByOneAdd(t *testing.T) {
	env, c := serveRun(t, 200)
	if err := env.stop(); err != nil {
		t.Fatal(err)
	}
	const rows = 1000
	initial := int64(rows * (rows - 1) / 2)
	acked := c.model.ackedDelta
	if acked == 0 {
		t.Fatal("no add was acknowledged")
	}
	if err := kvCheck(env.e, rows, "after drain", initial, acked); err != nil {
		t.Fatalf("exact model: %v", err)
	}
	if err := kvCheck(env.e, rows, "after drain", initial, acked+1); err == nil {
		t.Fatal("sum check accepted an off-by-one acknowledged add")
	}
	e2, err := crashRecover(metrics{}, false, env.e, env.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := kvCheck(e2, rows, "after recovery", initial, acked); err != nil {
		t.Fatalf("exact model after recovery: %v", err)
	}
	if err := kvCheck(e2, rows, "after recovery", initial, acked-1); err == nil {
		t.Fatal("sum check after recovery accepted an off-by-one acknowledged add")
	}
}

func TestReplayCheckCatchesDigestMismatch(t *testing.T) {
	env, c := serveRun(t, 0)
	defer env.stop()
	t0 := time.Now()
	add := serveOp{kind: opAdd, key: 5, delta: 3, idem: idemKeyBase(0) | 1}
	if _, _, err := c.do(add, t0); err != nil {
		t.Fatal(err)
	}
	resend := add
	resend.kind = opResend
	if _, _, err := c.do(resend, t0); err != nil {
		t.Fatalf("faithful replay: %v", err)
	}
	c.model.lastDigest = strings.Repeat("0", 16)
	if _, _, err := c.do(resend, t0); err == nil || !strings.Contains(err.Error(), "digest") {
		t.Fatalf("replay with a mismatched digest: err = %v, want a digest failure", err)
	}
}

func TestCompareRefusesOtherHost(t *testing.T) {
	a := reportLine{Fingerprint: fingerprint{CPU: "x", NProc: 2, GOMAXPROCS: 2, Go: "go1.24.0", Commit: "a"}}
	b := a
	b.Fingerprint.Commit = "b"
	if err := sameHost([]reportLine{a, b}); err != nil {
		t.Fatalf("same host, different commits: %v", err)
	}
	b.Fingerprint.GOMAXPROCS = 4
	if err := sameHost([]reportLine{a, b}); err == nil {
		t.Fatal("compare accepted results from different GOMAXPROCS")
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json's workloads and metric
// lists in step with what the benchmark reports.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type m struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []m `json:"end_to_end"`
		PerLayer  []m `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, code has %s", got, want)
	}
	same := func(kind string, got []m, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, code %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s [%s], code %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

func TestWorkloadsReportEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			c := runConfig{workload: name, seed: 1, seconds: 1, trace: trace,
				traceOut: t.TempDir() + "/spans.jsonl", t0: time.Now()}
			out, err := workloads[name].run(c)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if out.failed != 0 || out.attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d failed: %v", name, trace, out.failed, out.attempted, out.checkErrs)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(out.metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(out.metrics), len(want))
			}
		}
	}
}
