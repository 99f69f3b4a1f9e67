package bench

import (
	"strings"
	"testing"

	"falcon/internal/core"
	"falcon/internal/workload/tpcc"
	"falcon/internal/workload/ycsb"
)

func TestRunTPCCSmoke(t *testing.T) {
	ecfg := core.FalconConfig()
	ecfg.Threads = 4
	e, d, err := NewTPCC(ecfg, tpcc.Config{Warehouses: 2, Items: 200, CustomersPerDistrict: 30})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(e, "TPC-C", Options{Workers: 4, TxnsPerWorker: 50, WarmupPerWorker: 10, Classes: 5},
		func(w int) (int, error) {
			ty, err := d.NextTyped(w)
			return int(ty), err
		})
	if err != nil {
		t.Fatal(err)
	}
	if res.MTxnPerSec <= 0 || res.VirtualNanos == 0 {
		t.Fatalf("bad result %+v", res)
	}
	if res.Committed < 200 {
		t.Fatalf("committed = %d", res.Committed)
	}
	if res.LatAvgNanos[int(tpcc.TxnNewOrder)] == 0 {
		t.Fatal("NewOrder latency not measured")
	}
}

func TestRunYCSBSmoke(t *testing.T) {
	ecfg := core.ZenSConfig()
	ecfg.Threads = 2
	e, d, err := NewYCSB(ecfg, ycsb.Config{Records: 2000, Fields: 4, FieldBytes: 32, Workload: ycsb.A})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(e, "YCSB-A", Options{Workers: 2, TxnsPerWorker: 100, WarmupPerWorker: 50},
		func(w int) (int, error) { return 0, d.Next(w) })
	if err != nil {
		t.Fatal(err)
	}
	if res.MTxnPerSec <= 0 {
		t.Fatalf("bad result %+v", res)
	}
	// The attached snapshot covers exactly the measured phase: warmup
	// transactions must not leak into it.
	if res.Obs.Commits != res.Committed {
		t.Fatalf("snapshot commits = %d, result committed = %d", res.Obs.Commits, res.Committed)
	}
	if res.Obs.TotalPhaseNanos() == 0 {
		t.Fatal("snapshot has no phase time")
	}
	if res.LatP50Nanos[0] > res.LatP95Nanos[0] || res.LatP95Nanos[0] > res.LatP99Nanos[0] {
		t.Fatalf("quantiles not monotone: %d/%d/%d",
			res.LatP50Nanos[0], res.LatP95Nanos[0], res.LatP99Nanos[0])
	}
}

func TestEstimateDeviceBytesCoversLoad(t *testing.T) {
	// If the estimate were too small, NewTPCC/NewYCSB above would fail with
	// arena exhaustion; exercise a larger shape here.
	ecfg := core.OutpConfig()
	ecfg.Threads = 8
	_, _, err := NewTPCC(ecfg, tpcc.Config{Warehouses: 4, Items: 500, CustomersPerDistrict: 60})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPresetLookup checks the preset registry: names match regardless of
// case, every preset is reachable by its own name, and an unknown name's
// error lists the valid ones.
func TestPresetLookup(t *testing.T) {
	for _, want := range Presets() {
		got, err := Preset(strings.ToUpper(want.Name))
		if err != nil {
			t.Fatalf("Preset(%q): %v", strings.ToUpper(want.Name), err)
		}
		if got.Name != want.Name {
			t.Fatalf("Preset(%q) = %q", strings.ToUpper(want.Name), got.Name)
		}
	}
	if _, err := Preset("inp (small log window)"); err != nil {
		t.Fatalf("lower-case ablation preset: %v", err)
	}
	_, err := Preset("no-such-engine")
	if err == nil {
		t.Fatal("unknown preset returned no error")
	}
	for _, c := range Presets() {
		if !strings.Contains(err.Error(), c.Name) {
			t.Errorf("error %q does not list preset %q", err, c.Name)
		}
	}
}
