package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"falcon/internal/core"
	"falcon/internal/index"
	"falcon/internal/obs"
	"falcon/internal/server"
)

// serveWorkload is falcon-serve's request path in-process: a kv table of
// 16-byte rows plus the idempotency table, behind server.Handler on a
// loopback port, driven by a closed loop of `workers` keep-alive
// connections.
type serveWorkload struct {
	rows uint64
}

// idemCapacity bounds the fresh adds a run may commit: at 26k requests/s
// half are adds, so 2M records last well over a minute.
const idemCapacity = 2 << 20

// drainTimeout bounds Server.Drain; a closed loop leaves nothing queued.
// requestTimeout turns a request the server never answers into a failure.
const (
	drainTimeout   = 10 * time.Second
	requestTimeout = 10 * time.Second
)

type serveEnv struct {
	e    *core.Engine
	cfg  core.Config
	srv  *server.Server
	hs   *http.Server
	url  string
	done chan error // hs.Serve's return

	// handlerLog, when set, receives a span per request from the middleware
	// around server.Handler.
	handlerLog atomic.Pointer[spanLog]
}

// setup builds the server as falcon-serve does: Falcon preset, kv table of
// capacity 2×rows preloaded with key k -> value k, default server.Config.
func (wl serveWorkload) setup() (*serveEnv, setupTimes, error) {
	var st setupTimes
	start := time.Now()
	specs := server.WithIdemTable([]core.TableSpec{{
		Name: "kv", Schema: server.ServeSchema(0), Capacity: max(2*wl.rows, 1<<16),
		KeyCol: 0, IndexKind: index.Hash,
	}}, idemCapacity)
	e, cfg, err := newEngine(specs)
	if err != nil {
		return nil, st, err
	}
	st.newEngine = time.Since(start)
	loadStart := time.Now()
	if err := preload(e, wl.rows); err != nil {
		return nil, st, err
	}
	st.load = time.Since(loadStart)
	srv, err := server.New(e, server.Config{})
	if err != nil {
		return nil, st, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain(drainTimeout)
		return nil, st, err
	}
	env := &serveEnv{e: e, cfg: cfg, srv: srv, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	env.hs = &http.Server{Handler: env.traceHandler(srv.Handler())}
	go func() { env.done <- env.hs.Serve(ln) }()
	return env, st, nil
}

// preload inserts key k -> value k in batches, rotating across the engine
// workers so every worker's heap range fills evenly.
func preload(e *core.Engine, rows uint64) error {
	t := e.Table("kv")
	s := t.Schema()
	const batch = 256
	buf := make([]byte, s.TupleSize())
	for lo := uint64(0); lo < rows; lo += batch {
		hi := min(lo+batch, rows)
		err := e.Run(int(lo/batch)%workers, func(tx *core.Txn) error {
			for k := lo; k < hi; k++ {
				s.PutUint64(buf, 0, k)
				s.PutInt64(buf, 1, int64(k))
				if err := tx.Insert(t, k, buf); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("preload rows [%d,%d): %w", lo, hi, err)
		}
	}
	return nil
}

// stop drains the server (admission off, in-flight requests finish, the
// device is synced) and closes the listener.
func (env *serveEnv) stop() error {
	drained := env.srv.Drain(drainTimeout)
	err := env.hs.Close()
	if serr := <-env.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if !drained {
		return errors.New("server drain timed out")
	}
	return err
}

// traceHandler wraps h with the handler span, linked to the client's span
// by the operation id the client sends.
func (env *serveEnv) traceHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		log := env.handlerLog.Load()
		if log == nil || !tracedWindow(log.now()) {
			h.ServeHTTP(w, r)
			return
		}
		start := log.now()
		h.ServeHTTP(w, r)
		op, _ := strconv.ParseUint(r.Header.Get(opHeader), 10, 64)
		log.record(spanHandler, op, log.newID(), 0, start, log.now())
	})
}

// opHeader carries the benchmark's operation id on every request.
const opHeader = "X-Bench-Op"

// requestBody renders op as the JSON body falcon-serve accepts.
func requestBody(dst []byte, op serveOp) []byte {
	dst = dst[:0]
	if op.kind == opGet {
		dst = append(dst, `{"ops":[{"op":"get","table":"kv","key":`...)
		dst = strconv.AppendUint(dst, op.key, 10)
		return append(dst, `}]}`...)
	}
	dst = append(dst, `{"ops":[{"op":"add","table":"kv","key":`...)
	dst = strconv.AppendUint(dst, op.key, 10)
	dst = append(dst, `,"val":`...)
	dst = strconv.AppendInt(dst, op.delta, 10)
	return append(dst, `}]}`...)
}

// serveClient is one keep-alive connection in the closed loop.
type serveClient struct {
	w      int
	url    string
	client *http.Client
	gen    *serveGen
	model  serveModel
	body   []byte
	opID   uint64
	ops    uint64 // successful operations in the last phase
	err    error  // first failure of the last phase
	log    *spanLog
}

func newServeClient(w int, url string, gen *serveGen) *serveClient {
	return &serveClient{w: w, url: url, gen: gen, opID: uint64(w) << 48, client: &http.Client{
		Timeout:   requestTimeout,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
	}}
}

// do sends one request and checks the reply; it returns the time from send
// to full body read.
func (c *serveClient) do(op serveOp, t0 time.Time) (start, end time.Duration, err error) {
	c.body = requestBody(c.body, op)
	path := "/v1/txn"
	if op.kind == opGet {
		path = "/v1/read"
	}
	req, err := http.NewRequest(http.MethodPost, c.url+path, bytes.NewReader(c.body))
	if err != nil {
		return 0, 0, err
	}
	if op.kind != opGet {
		req.Header.Set("Idempotency-Key", strconv.FormatUint(op.idem, 10))
	}
	req.Header.Set(opHeader, strconv.FormatUint(c.opID, 10))
	start = time.Since(t0)
	resp, err := c.client.Do(req)
	if err != nil {
		return start, time.Since(t0), err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	end = time.Since(t0)
	if err != nil {
		return start, end, err
	}
	if resp.StatusCode != http.StatusOK {
		return start, end, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	var tr server.TxnResponse
	if err := json.Unmarshal(data, &tr); err != nil {
		return start, end, err
	}
	return start, end, c.model.checkReply(op, &tr)
}

func (c *serveClient) runPhase(t0 time.Time, d time.Duration, trace bool) *recorder {
	rec := newRecorder(d)
	c.ops, c.err = 0, nil
	for now := time.Duration(0); now < d; {
		traced := trace && tracedWindow(now)
		op := c.gen.next()
		c.opID++
		start, end, err := c.do(op, t0)
		if traced {
			c.log.record(spanRoundtrip, c.opID, c.log.newID(), 0, start, end)
		}
		if err != nil {
			if c.err == nil {
				c.err = err
			}
		} else {
			c.ops++
		}
		rec.observe(end, end-start, err == nil)
		now = end
	}
	return rec
}

// runClients runs every client for d and returns their records. A traced
// run also returns the handler middleware's span log.
func runClients(env *serveEnv, cs []*serveClient, d time.Duration, trace bool) ([]*recorder, []error, *spanLog) {
	t0 := time.Now()
	if trace {
		env.handlerLog.Store(newSpanLog(t0, len(cs)))
	}
	recs := make([]*recorder, len(cs))
	var wg sync.WaitGroup
	for i, c := range cs {
		if trace {
			c.log = newSpanLog(t0, i)
		}
		wg.Add(1)
		go func(i int, c *serveClient) {
			defer wg.Done()
			recs[i] = c.runPhase(t0, d, trace)
		}(i, c)
	}
	wg.Wait()
	var errs []error
	for _, c := range cs {
		if c.err != nil {
			errs = append(errs, fmt.Errorf("client %d: %w", c.w, c.err))
		}
	}
	return recs, errs, env.handlerLog.Swap(nil)
}

func (wl serveWorkload) run(c runConfig) (*outcome, error) {
	env, setups, err := repeatSetup(c.t0, wl.setup, (*serveEnv).stop)
	if err != nil {
		return nil, err
	}
	out := &outcome{metrics: metrics{}, digest: serveDigest(c.seed, workers, wl.rows)}
	m := out.metrics
	setupLayers(m, setups, c.trace)
	cs := make([]*serveClient, workers)
	for w := range cs {
		cs[w] = newServeClient(w, env.url, newServeGen(c.seed, w, wl.rows))
	}
	d := c.duration()
	var logs []*spanLog
	if !c.trace {
		recs, errs, _ := runClients(env, cs, d, false)
		st := mergeRecorders(recs, d, nil)
		out.addPhase(st, errs)
		if err := setEndToEnd(m, st); err != nil {
			return nil, err
		}
	} else {
		snap0, clk0, go0 := env.srv.Snapshot(), clockNanos(env.e), readGoStats()
		recs, errs, hlog := runClients(env, cs, d, true)
		go1 := readGoStats()
		plain, traced, all := traceSplit(recs, d)
		out.addPhase(all, errs)
		var ops uint64
		for _, cl := range cs {
			ops += cl.ops
			logs = append(logs, cl.log)
		}
		logs = append(logs, hlog)
		diff := env.srv.Snapshot().Sub(snap0)
		engineLayers(m, diff, ops, clk0, clockNanos(env.e))
		goLayers(m, go0, go1, ops)
		serverLayers(m, diff, ops)
		sp := sumSpans(logs)
		m.set("server.roundtrip_p50_us", "us", traced.p50us)
		m.set("server.roundtrip_p99_us", "us", traced.p99us)
		m.set("server.handler_us", "us", sp.meanUS(spanHandler))
		m.set("server.transport_us", "us", sp.meanUS(spanRoundtrip)-sp.meanUS(spanHandler))
		m.set("bench.trace_overhead", "ratio", 1-traced.opsPerSec/plain.opsPerSec)
	}
	for _, cl := range cs {
		cl.client.CloseIdleConnections()
	}

	initial := int64(wl.rows) * int64(wl.rows-1) / 2
	var acked int64
	for _, cl := range cs {
		acked += cl.model.ackedDelta
	}
	if err := env.stop(); err != nil {
		return nil, err
	}
	if err := kvCheck(env.e, wl.rows, "after drain", initial, acked); err != nil {
		out.checkFailed(err)
	}
	e2, err := crashRecover(m, c.trace, env.e, env.cfg)
	if err != nil {
		return nil, fmt.Errorf("recover: %w", err)
	}
	if err := kvCheck(e2, wl.rows, "after recovery", initial, acked); err != nil {
		out.checkFailed(err)
	}
	if c.trace {
		alog := applyProbe(e2, c.seed, wl.rows, out)
		logs = append(logs, alog)
		apply := sumSpans([]*spanLog{alog}).meanUS(spanApply)
		m.set("server.apply_us", "us", apply)
		m.set("server.http_us", "us", m["server.handler_us"].Value-apply)
		if err := writeSpans(c.traceOut, logs); err != nil {
			return nil, err
		}
		pmemProbes(m)
		zeroLayers(m)
	}
	return out, nil
}

// applyProbeKeys moves the probe's idempotency keys clear of the run's, so
// its adds execute fresh on the recovered engine.
const applyProbeKeys = 1 << 62

// applyProbeOps is how many requests of each client's stream the Apply
// probe replays.
const applyProbeOps = 25_000

// applyProbe replays the start of each client's request stream on the
// recovered engine, which no pool worker is using, calling server.Apply /
// ApplyRO directly and checking each reply as the client does.
func applyProbe(e *core.Engine, seed, rows uint64, out *outcome) *spanLog {
	log := newSpanLog(time.Now(), workers+1)
	var body []byte
	for w := 0; w < workers; w++ {
		gen := newServeGen(seed, w, rows)
		var model serveModel
		for i := uint64(0); i < applyProbeOps; i++ {
			op := gen.next()
			op.idem |= applyProbeKeys
			body = requestBody(body, op)
			req, err := server.ParseRequest(body)
			if err != nil {
				out.checkFailed(err)
				continue
			}
			var resp *server.TxnResponse
			start := log.now()
			if op.kind == opGet {
				resp, err = server.ApplyRO(e, w, req, nil)
			} else {
				resp, err = server.Apply(e, w, op.idem, req, nil)
			}
			log.record(spanApply, uint64(w)<<48|(i+1), log.newID(), 0, start, log.now())
			if err == nil {
				err = model.checkReply(op, resp)
			}
			if err != nil {
				out.checkFailed(fmt.Errorf("apply probe: %w", err))
			}
		}
	}
	return log
}

// serverLayers sets the server.* counts of a phase from its snapshot diff.
func serverLayers(m metrics, d obs.Snapshot, ops uint64) {
	n := float64(max(ops, 1))
	var replayed, shed, expired float64
	var est uint64
	if sv := d.Server; sv != nil {
		for _, ep := range sv.Endpoints {
			replayed += float64(ep.Replayed)
			shed += float64(ep.Shed())
			expired += float64(ep.Expired)
		}
		est = sv.EstServiceNanos
	}
	m.set("server.replay_share", "ratio", replayed/n)
	m.set("server.shed_per_op", "count/op", shed/n)
	m.set("server.expired_per_op", "count/op", expired/n)
	m.set("server.est_service_us", "us", float64(est)/1e3)
}

// kvCheck sums the kv table and checks it against the acknowledged adds.
func kvCheck(e *core.Engine, rows uint64, stage string, initial, acked int64) error {
	t := e.Table("kv")
	s := t.Schema()
	buf := make([]byte, s.TupleSize())
	var sum int64
	for lo := uint64(0); lo < rows; lo += 1024 {
		hi := min(lo+1024, rows)
		var part int64
		err := e.RunRO(0, func(tx *core.Txn) error {
			part = 0
			for k := lo; k < hi; k++ {
				if err := tx.Read(t, k, buf); err != nil {
					return fmt.Errorf("key %d: %w", k, err)
				}
				part += s.GetInt64(buf, 1)
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("%s: %w", stage, err)
		}
		sum += part
	}
	return checkSum(stage, sum, initial, acked)
}
