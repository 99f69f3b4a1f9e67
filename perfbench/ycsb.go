package main

import (
	"fmt"
	"sync"
	"time"

	"falcon/internal/core"
	"falcon/internal/index"
)

// ycsbWorkload is YCSB-A (50% full-row reads, 50% blind full-row updates)
// over a table of 1 KiB rows, with uniform or Zipfian(0.99) keys.
type ycsbWorkload struct {
	rows uint64
	zipf bool
}

const ycsbTable = "usertable"

type ycsbEnv struct {
	e   *core.Engine
	cfg core.Config
}

// setup opens the engine and bulk-loads every row with its loaded image
// (stamp 0) the way the repository's YCSB loader does: heap slots taken in
// turn from each worker's range, installed and indexed directly.
func (wl ycsbWorkload) setup() (*ycsbEnv, setupTimes, error) {
	var st setupTimes
	start := time.Now()
	e, cfg, err := newEngine([]core.TableSpec{{
		Name: ycsbTable, Schema: rowSchema(), Capacity: wl.rows + wl.rows/4 + 1024,
		KeyCol: 0, IndexKind: index.Hash,
	}})
	if err != nil {
		return nil, st, err
	}
	st.newEngine = time.Since(start)
	loadStart := time.Now()
	tbl := e.Table(ycsbTable)
	h := tbl.Heap()
	buf := make([]byte, rowBytes)
	for k := uint64(0); k < wl.rows; k++ {
		slot, err := h.Alloc(nil, int(k%workers), 0)
		if err != nil {
			return nil, st, fmt.Errorf("load row %d: %w", k, err)
		}
		fillRow(buf, k, 0)
		h.BulkInstall(slot, 0, buf)
		if err := tbl.BulkIndexInsert(k, slot); err != nil {
			return nil, st, fmt.Errorf("load row %d: %w", k, err)
		}
	}
	st.load = time.Since(loadStart)
	return &ycsbEnv{e: e, cfg: cfg}, st, nil
}

// ycsbWorker drives one engine worker. The Run closures are built once so
// the loop itself allocates nothing.
type ycsbWorker struct {
	w    int
	e    *core.Engine
	tbl  *core.Table
	gen  *ycsbGen
	acks []uint64
	op   ycsbOp
	wbuf []byte
	rbuf []byte
	ops  uint64 // successful operations in the last phase
	err  error  // first failure of the last phase

	update, read   func(*core.Txn) error
	updateT, readT func(*core.Txn) error

	// Traced-phase state.
	log          *spanLog
	opID, runID  uint64
	attempts     uint64
	firstAttempt time.Duration
	lastAttempt  time.Duration
	retryTime    time.Duration
}

func newYCSBWorker(w int, e *core.Engine, gen *ycsbGen, acks []uint64) *ycsbWorker {
	s := &ycsbWorker{w: w, e: e, tbl: e.Table(ycsbTable), gen: gen, acks: acks,
		wbuf: make([]byte, rowBytes), rbuf: make([]byte, rowBytes)}
	s.update = func(tx *core.Txn) error { return tx.Update(s.tbl, s.op.key, 0, s.wbuf) }
	s.read = func(tx *core.Txn) error { return tx.Read(s.tbl, s.op.key, s.rbuf) }
	s.updateT = func(tx *core.Txn) error { return s.tracedCall(tx, spanUpdate) }
	s.readT = func(tx *core.Txn) error { return s.tracedCall(tx, spanRead) }
	return s
}

// tracedCall is one attempt of the Run closure with its child span.
func (s *ycsbWorker) tracedCall(tx *core.Txn, name int) error {
	start := s.log.now()
	if s.attempts == 0 {
		s.firstAttempt = start
	}
	s.attempts++
	s.lastAttempt = start
	var err error
	if name == spanUpdate {
		err = tx.Update(s.tbl, s.op.key, 0, s.wbuf)
	} else {
		err = tx.Read(s.tbl, s.op.key, s.rbuf)
	}
	s.log.record(name, s.opID, s.log.newID(), s.runID, start, s.log.now())
	return err
}

func (s *ycsbWorker) call(traced bool) error {
	switch {
	case traced && s.op.update:
		return s.e.Run(s.w, s.updateT)
	case traced:
		return s.e.RunRO(s.w, s.readT)
	case s.op.update:
		return s.e.Run(s.w, s.update)
	default:
		return s.e.RunRO(s.w, s.read)
	}
}

// runPhase issues operations back to back until d has passed since t0. In
// a traced run, operations in traced windows record spans.
func (s *ycsbWorker) runPhase(t0 time.Time, d time.Duration, trace bool) *recorder {
	rec := newRecorder(d)
	s.ops, s.err = 0, nil
	for now := time.Duration(0); now < d; {
		traced := trace && tracedWindow(now)
		s.op = s.gen.next()
		if s.op.update {
			fillRow(s.wbuf, s.op.key, s.op.stamp)
		}
		if traced {
			s.opID++
			s.attempts = 0
			s.runID = s.log.newID()
		}
		start := time.Since(t0)
		err := s.call(traced)
		end := time.Since(t0)
		if traced {
			s.log.record(spanRun, s.opID, s.runID, 0, start, end)
			if s.attempts > 1 {
				s.retryTime += s.lastAttempt - s.firstAttempt
			}
		}
		if err == nil {
			if s.op.update {
				s.acks[s.op.key] = s.op.stamp
			} else if _, cerr := checkRow(s.op.key, s.rbuf); cerr != nil {
				err = cerr
			}
		}
		if err != nil {
			if s.err == nil {
				s.err = err
			}
		} else {
			s.ops++
		}
		rec.observe(end, end-start, err == nil)
		now = end
	}
	return rec
}

// runAll runs every worker for d and returns their records.
func runAll(ws []*ycsbWorker, d time.Duration, trace bool) ([]*recorder, []error) {
	t0 := time.Now()
	recs := make([]*recorder, len(ws))
	var wg sync.WaitGroup
	for i, s := range ws {
		if trace {
			s.log = newSpanLog(t0, i)
		}
		wg.Add(1)
		go func(i int, s *ycsbWorker) {
			defer wg.Done()
			recs[i] = s.runPhase(t0, d, trace)
		}(i, s)
	}
	wg.Wait()
	var errs []error
	for _, s := range ws {
		if s.err != nil {
			errs = append(errs, fmt.Errorf("worker %d: %w", s.w, s.err))
		}
	}
	return recs, errs
}

func (wl ycsbWorkload) run(c runConfig) (*outcome, error) {
	var z *zipf
	if wl.zipf {
		z = newZipf(wl.rows, 0.99)
	}
	env, setups, err := repeatSetup(c.t0, wl.setup, func(*ycsbEnv) error { return nil })
	if err != nil {
		return nil, err
	}
	e := env.e
	out := &outcome{metrics: metrics{}, digest: ycsbDigest(c.seed, workers, wl.rows, z)}
	model := newYCSBModel(workers, wl.rows)
	ws := make([]*ycsbWorker, workers)
	for w := range ws {
		ws[w] = newYCSBWorker(w, e, newYCSBGen(c.seed, w, wl.rows, z), model.lastAck[w])
	}
	m := out.metrics
	setupLayers(m, setups, c.trace)

	d := c.duration()
	if !c.trace {
		recs, errs := runAll(ws, d, false)
		st := mergeRecorders(recs, d, nil)
		out.addPhase(st, errs)
		if err := setEndToEnd(m, st); err != nil {
			return nil, err
		}
	} else {
		snap0, clk0, go0 := e.ObsSnapshot(), clockNanos(e), readGoStats()
		recs, errs := runAll(ws, d, true)
		go1 := readGoStats()
		plain, traced, all := traceSplit(recs, d)
		out.addPhase(all, errs)
		var ops uint64
		var retry time.Duration
		logs := make([]*spanLog, len(ws))
		for i, s := range ws {
			ops += s.ops
			retry += s.retryTime
			logs[i] = s.log
		}
		engineLayers(m, e.ObsSnapshot().Sub(snap0), ops, clk0, clockNanos(e))
		goLayers(m, go0, go1, ops)
		sp := sumSpans(logs)
		runs := float64(max(sp.count[spanRun], 1))
		m.set("core.run_us", "us", sp.meanUS(spanRun))
		m.set("core.read_us", "us", sp.meanUS(spanRead))
		m.set("core.update_us", "us", sp.meanUS(spanUpdate))
		self := sp.total[spanRun] - sp.total[spanRead] - sp.total[spanUpdate]
		m.set("core.run_self_us", "us", self.Seconds()*1e6/runs)
		m.set("core.attempts_per_op", "count/op", float64(sp.count[spanRead]+sp.count[spanUpdate])/runs)
		m.set("core.retry_share", "ratio", retry.Seconds()/max(sp.total[spanRun].Seconds(), 1e-9))
		m.set("bench.trace_overhead", "ratio", 1-traced.opsPerSec/plain.opsPerSec)
		if err := writeSpans(c.traceOut, logs); err != nil {
			return nil, err
		}
	}

	e2, err := crashRecover(m, c.trace, e, env.cfg)
	if err != nil {
		return nil, fmt.Errorf("recover: %w", err)
	}
	checkRows(e2, wl.rows, model, out)
	if c.trace {
		pmemProbes(m)
		zeroLayers(m)
	}
	return out, nil
}

// checkRows reads every recovered row and checks it against the model.
func checkRows(e *core.Engine, rows uint64, model *ycsbModel, out *outcome) {
	tbl := e.Table(ycsbTable)
	buf := make([]byte, rowBytes)
	var bad []error
	for lo := uint64(0); lo < rows; lo += 256 {
		hi := min(lo+256, rows)
		err := e.RunRO(0, func(tx *core.Txn) error {
			bad = bad[:0]
			for k := lo; k < hi; k++ {
				if err := tx.Read(tbl, k, buf); err != nil {
					return fmt.Errorf("row %d: %w", k, err)
				}
				if err := model.checkFinal(k, buf); err != nil {
					bad = append(bad, err)
				}
			}
			return nil
		})
		if err != nil {
			out.checkFailed(fmt.Errorf("recovered read: %w", err))
			continue
		}
		for _, err := range bad {
			out.checkFailed(err)
		}
	}
}
