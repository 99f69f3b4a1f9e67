package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Span names. Spans are recorded in the benchmark's own code around the
// calls it makes into each layer.
const (
	spanRun       = iota // Engine.Run / RunRO
	spanRead             // Txn.Read inside the Run closure
	spanUpdate           // Txn.Update inside the Run closure
	spanRoundtrip        // client: request send to full body read
	spanHandler          // middleware around Server.Handler
	spanApply            // direct server.Apply / ApplyRO probe
	numSpans
)

var spanNames = [numSpans]string{
	"core.run", "core.read", "core.update",
	"server.roundtrip", "server.handler", "server.apply",
}

// span is one timed interval. Spans of one operation share op; parent is
// the id of the enclosing span in the same log (0 for a root).
type span struct {
	op, id, parent uint64
	name           int
	start, end     time.Duration // offsets from the log's t0
}

// keptSpans bounds the raw spans each log keeps for the trace file; every
// span, kept or not, goes into the per-name totals.
const keptSpans = 1 << 14

// spanLog is a span record. A client or worker owns its log; the handler
// middleware shares one between server goroutines.
type spanLog struct {
	mu     sync.Mutex
	t0     time.Time
	logID  uint64
	nextID uint64
	kept   []span
	total  [numSpans]time.Duration
	count  [numSpans]uint64
}

func newSpanLog(t0 time.Time, logID int) *spanLog {
	return &spanLog{t0: t0, logID: uint64(logID) << 48, kept: make([]span, 0, keptSpans)}
}

func (l *spanLog) now() time.Duration { return time.Since(l.t0) }

// newID reserves a span id, so children can name a parent that is still
// open.
func (l *spanLog) newID() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.nextID++
	return l.logID | l.nextID
}

// record stores a finished span.
func (l *spanLog) record(name int, op, id, parent uint64, start, end time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.total[name] += end - start
	l.count[name]++
	if len(l.kept) < cap(l.kept) {
		l.kept = append(l.kept, span{op: op, id: id, parent: parent, name: name, start: start, end: end})
	}
}

// spanTotals sums per-name totals across logs.
type spanTotals struct {
	total [numSpans]time.Duration
	count [numSpans]uint64
}

func sumSpans(logs []*spanLog) spanTotals {
	var t spanTotals
	for _, l := range logs {
		for i := range t.total {
			t.total[i] += l.total[i]
			t.count[i] += l.count[i]
		}
	}
	return t
}

// meanUS is a span name's mean duration in microseconds.
func (t spanTotals) meanUS(name int) float64 {
	if t.count[name] == 0 {
		return 0
	}
	return t.total[name].Seconds() * 1e6 / float64(t.count[name])
}

// writeSpans writes the kept spans as JSON lines once the run has ended.
func writeSpans(path string, logs []*spanLog) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, l := range logs {
		for _, s := range l.kept {
			rec := struct {
				Op      uint64 `json:"op"`
				ID      uint64 `json:"id"`
				Parent  uint64 `json:"parent"`
				Name    string `json:"name"`
				StartNS int64  `json:"start_ns"`
				EndNS   int64  `json:"end_ns"`
			}{s.op, s.id, s.parent, spanNames[s.name], int64(s.start), int64(s.end)}
			if err := enc.Encode(&rec); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
