package main

import (
	"bufio"
	"fmt"
	"math/bits"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// hist is a log-linear latency histogram over nanoseconds: 64 linear
// sub-buckets per power of two (under 1.6% relative bucket width).
// Quantiles interpolate linearly inside the bucket that holds the rank.
type hist struct {
	counts [histBuckets]uint32
	n      uint64
}

const (
	subBits     = 6
	histBuckets = (40 - subBits + 2) << subBits
)

func bucketOf(v uint64) int {
	if v < 1<<subBits {
		return int(v)
	}
	msb := bits.Len64(v) - 1
	shift := msb - subBits
	i := (shift+1)<<subBits + int(v>>uint(shift)&(1<<subBits-1))
	if i >= histBuckets {
		return histBuckets - 1
	}
	return i
}

// bucketRange returns a bucket's lower bound and width.
func bucketRange(i int) (lo, width float64) {
	if i < 1<<subBits {
		return float64(i), 1
	}
	shift := i>>subBits - 1
	sub := i & (1<<subBits - 1)
	return float64(uint64(1<<subBits+sub) << uint(shift)), float64(uint64(1) << uint(shift))
}

func (h *hist) add(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.counts[bucketOf(uint64(ns))]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in nanoseconds (0 when empty).
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, w := bucketRange(i)
			return lo + w*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	lo, w := bucketRange(histBuckets - 1)
	return lo + w
}

// window is one slice of a timed phase: operations that completed inside it
// and their latencies.
type window struct {
	ops uint64
	lat hist
}

// windowLen is the slice length. Throughput and latency quantiles are taken
// per window and the run reports their medians, so a short stall on a
// shared host moves one window and not the result.
const windowLen = 500 * time.Millisecond

// recorder is one worker's latency and throughput record for a phase.
type recorder struct {
	windows []window
	ops     uint64 // completed, successful or not
	failed  uint64
}

func newRecorder(d time.Duration) *recorder {
	return &recorder{windows: make([]window, int(d/windowLen)+1)}
}

// observe records one operation that ended at end (offset from the phase
// start) after taking lat.
func (r *recorder) observe(end, lat time.Duration, ok bool) {
	r.ops++
	if !ok {
		r.failed++
		return
	}
	if i := int(end / windowLen); i < len(r.windows) {
		w := &r.windows[i]
		w.ops++
		w.lat.add(int64(lat))
	}
}

// tracedWindow reports whether an operation starting at t (from the phase
// start) is traced in a traced run. Traced and untraced windows alternate,
// so host drift during the run affects both alike and their throughput
// ratio is the tracing overhead.
func tracedWindow(t time.Duration) bool { return (t/windowLen)%2 == 1 }

// phaseStats is a phase's per-window medians over the windows kept, and its
// operation totals over all windows.
type phaseStats struct {
	opsPerSec, p50us, p99us float64
	samples                 uint64 // latency samples in the kept windows
	attempted, failed       uint64
}

// mergeRecorders merges worker recorders. keep selects windows by index;
// nil keeps every full window.
func mergeRecorders(rs []*recorder, d time.Duration, keep func(int) bool) phaseStats {
	var tput, p50, p99 []float64
	var st phaseStats
	for i := 0; i < int(d/windowLen); i++ {
		if keep != nil && !keep(i) {
			continue
		}
		var w window
		for _, r := range rs {
			w.ops += r.windows[i].ops
			w.lat.merge(&r.windows[i].lat)
		}
		st.samples += w.lat.n
		tput = append(tput, float64(w.ops)/windowLen.Seconds())
		if w.ops > 0 {
			p50 = append(p50, w.lat.quantile(0.50)/1e3)
			p99 = append(p99, w.lat.quantile(0.99)/1e3)
		}
	}
	for _, r := range rs {
		st.attempted += r.ops
		st.failed += r.failed
	}
	st.opsPerSec, st.p50us, st.p99us = median(tput), median(p50), median(p99)
	return st
}

// traceSplit merges a traced run's recorders into its untraced windows,
// its traced windows, and all of it.
func traceSplit(rs []*recorder, d time.Duration) (plain, traced, all phaseStats) {
	plain = mergeRecorders(rs, d, func(i int) bool { return i%2 == 0 })
	traced = mergeRecorders(rs, d, func(i int) bool { return i%2 == 1 })
	return plain, traced, mergeRecorders(rs, d, nil)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func medianDur(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return median(xs)
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}
