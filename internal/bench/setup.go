package bench

import (
	"fmt"
	"strings"

	"falcon/internal/core"
	"falcon/internal/heap"
	"falcon/internal/index"
	"falcon/internal/pmem"
	"falcon/internal/wal"
	"falcon/internal/workload/tpcc"
	"falcon/internal/workload/ycsb"
)

// EngineConfigs lists the eight engines of the paper's Figures 7–9, in the
// legend's order.
func EngineConfigs() []core.Config {
	return []core.Config{
		core.FalconDRAMIndexConfig(),
		core.FalconConfig(),
		core.FalconAllFlushConfig(),
		core.FalconNoFlushConfig(),
		core.InpConfig(),
		core.OutpConfig(),
		core.ZenSNoFlushConfig(),
		core.ZenSConfig(),
	}
}

// AblationConfigs lists the five engines of Figures 10–11 (the individual
// optimization study).
func AblationConfigs() []core.Config {
	return []core.Config{
		core.InpConfig(),
		core.InpSmallLogWindowConfig(),
		core.InpNoFlushConfig(),
		core.InpHotTupleTrackingConfig(),
		core.FalconConfig(),
	}
}

// Presets lists every named engine configuration, EngineConfigs then
// AblationConfigs, each name once.
func Presets() []core.Config {
	seen := map[string]bool{}
	var out []core.Config
	for _, c := range append(EngineConfigs(), AblationConfigs()...) {
		if !seen[c.Name] {
			seen[c.Name] = true
			out = append(out, c)
		}
	}
	return out
}

// Preset returns the preset whose name matches name case-insensitively. The
// error for an unknown name lists the valid ones.
func Preset(name string) (core.Config, error) {
	var names []string
	for _, c := range Presets() {
		if strings.EqualFold(c.Name, name) {
			return c, nil
		}
		names = append(names, c.Name)
	}
	return core.Config{}, fmt.Errorf("unknown engine preset %q (have: %s)", name, strings.Join(names, ", "))
}

// EstimateDeviceBytes sizes the simulated NVM device for an engine+tables
// combination, with headroom for windows, indexes and allocator slack.
func EstimateDeviceBytes(cfg core.Config, specs []core.TableSpec) uint64 {
	c := cfg
	if c.Threads == 0 {
		c.Threads = 4
	}
	headroom := cfg.VersionHeadroom
	if headroom == 0 {
		headroom = 4
	}
	var total uint64 = 16 << 20 // catalog, markers, slack
	// Per-thread log windows: Inp's large flushed-log regions with their
	// overflow areas are substantial at high thread counts.
	w := cfg.Window
	if w.Slots == 0 {
		if cfg.Log == core.SmallLogWindow {
			w.Slots = 3
		} else {
			w.Slots = 64
		}
	}
	if w.SlotBytes == 0 {
		w.SlotBytes = 4096
	}
	if w.OverflowBytes == 0 {
		w.OverflowBytes = 64 << 10
	}
	total += wal.BytesNeeded(w) * uint64(c.Threads)
	for _, spec := range specs {
		slots := spec.Capacity
		if cfg.Update == core.OutOfPlace {
			slots *= uint64(headroom)
			if min := uint64(c.Threads) * 128; slots < min {
				slots = min
			}
		}
		total += heap.BytesNeeded(heap.Config{
			SlotSize: spec.Schema.TupleSize(), NSlots: slots, NThreads: c.Threads,
		})
		idxCap := spec.Capacity * 11 / 10
		total += index.HashBytes(idxCap) + index.BTreeBytes(idxCap)
	}
	return total + total/4
}

// CacheBytesFor scales the simulated CPU cache with the worker count,
// approximating the paper's testbed where each of 48 cores contributes
// 1.25 MiB of L2 on top of a 39 MiB shared L3.
func CacheBytesFor(threads int) int {
	if threads <= 0 {
		threads = 4
	}
	return 2<<20 + threads*(256<<10)
}

// NewTPCC builds a loaded TPC-C engine+driver for the given engine config.
func NewTPCC(ecfg core.Config, wcfg tpcc.Config) (*core.Engine, *tpcc.Driver, error) {
	specs := tpcc.TableSpecs(wcfg)
	sys := pmem.NewSystem(pmem.Config{
		DeviceBytes: EstimateDeviceBytes(ecfg, specs),
		CacheBytes:  CacheBytesFor(ecfg.Threads),
	})
	e, err := core.New(sys, ecfg, specs)
	if err != nil {
		return nil, nil, err
	}
	if err := tpcc.Load(e, wcfg); err != nil {
		return nil, nil, err
	}
	d, err := tpcc.NewDriver(e, wcfg)
	if err != nil {
		return nil, nil, err
	}
	return e, d, nil
}

// NewYCSB builds a loaded YCSB engine+driver for the given engine config.
func NewYCSB(ecfg core.Config, wcfg ycsb.Config) (*core.Engine, *ycsb.Driver, error) {
	specs := ycsb.TableSpecs(wcfg)
	sys := pmem.NewSystem(pmem.Config{
		DeviceBytes: EstimateDeviceBytes(ecfg, specs),
		CacheBytes:  CacheBytesFor(ecfg.Threads),
	})
	e, err := core.New(sys, ecfg, specs)
	if err != nil {
		return nil, nil, err
	}
	if err := ycsb.Load(e, wcfg); err != nil {
		return nil, nil, err
	}
	d, err := ycsb.NewDriver(e, wcfg)
	if err != nil {
		return nil, nil, err
	}
	return e, d, nil
}
