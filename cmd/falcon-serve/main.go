// falcon-serve exposes one Falcon engine over HTTP: an admission-controlled
// request path (bounded worker pool, deadline-aware shedding) with
// exactly-once retry semantics backed by the engine-resident idempotency
// table. SIGTERM/SIGINT triggers a graceful drain: admission stops, in-flight
// requests finish, and the group-commit epoch is sealed before exit.
//
// Endpoints: POST /v1/txn (Idempotency-Key header required, optional
// X-Deadline-Ms), POST /v1/read (gets only, no key needed), GET /metrics
// (Prometheus exposition), GET /healthz, GET /readyz (503 while draining).
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"falcon/internal/bench"
	"falcon/internal/core"
	"falcon/internal/index"
	"falcon/internal/pmem"
	"falcon/internal/server"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	preset := flag.String("preset", "Falcon", "engine preset by name (case-insensitive; see -list-presets)")
	list := flag.Bool("list-presets", false, "print the available engine presets and exit")
	threads := flag.Int("threads", 4, "engine worker threads")
	workers := flag.Int("workers", 0, "serving pool size (0 = threads; capped at threads)")
	queue := flag.Int("queue", 0, "admission queue depth, queued + running (0 = 4x workers)")
	deadlineMs := flag.Int("deadline-ms", 1000, "default per-request deadline when X-Deadline-Ms is absent")
	floorMs := flag.Int("floor-ms", 0, "pad accepted requests to this service floor, for load experiments (0 = off)")
	records := flag.Uint64("records", 100_000, "rows preloaded into the kv table (key k -> val k)")
	capacity := flag.Uint64("capacity", 0, "kv table capacity (0 = 2x records, min 65536)")
	idemCap := flag.Uint64("idemcap", 1<<20, "idempotency table capacity (one row per committed request key)")
	pad := flag.Int("pad", 0, "extra payload bytes per kv tuple")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "bound on waiting for in-flight requests at shutdown")
	var group bench.GroupFlag
	group.Register()
	flag.Parse()

	if *list {
		for _, c := range bench.Presets() {
			fmt.Println(c.Name)
		}
		return
	}
	cfg, err := bench.Preset(*preset)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	cfg.Threads = *threads
	cfg = group.Apply(cfg)

	cap := *capacity
	if cap == 0 {
		cap = 2 * *records
		if cap < 1<<16 {
			cap = 1 << 16
		}
	}
	specs := server.WithIdemTable([]core.TableSpec{{
		Name: "kv", Schema: server.ServeSchema(*pad), Capacity: cap,
		KeyCol: 0, IndexKind: index.Hash,
	}}, *idemCap)
	sys := pmem.NewSystem(pmem.Config{
		DeviceBytes: bench.EstimateDeviceBytes(cfg, specs),
		CacheBytes:  bench.CacheBytesFor(cfg.Threads),
	})
	e, err := core.New(sys, cfg, specs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "engine:", err)
		os.Exit(1)
	}
	if err := preload(e, *records); err != nil {
		fmt.Fprintln(os.Stderr, "preload:", err)
		os.Exit(1)
	}

	srv, err := server.New(e, server.Config{
		Workers:         *workers,
		QueueDepth:      *queue,
		DefaultDeadline: time.Duration(*deadlineMs) * time.Millisecond,
		ServiceFloor:    time.Duration(*floorMs) * time.Millisecond,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "server:", err)
		os.Exit(1)
	}
	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	fmt.Printf("falcon-serve: %s on %s (%d engine threads, %d pool workers, queue %d, %d kv rows)\n",
		cfg.Name, *addr, cfg.Threads, srvWorkers(*workers, cfg.Threads), srvQueue(*queue, *workers, cfg.Threads), *records)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	case s := <-sig:
		fmt.Printf("falcon-serve: %s — draining (new requests shed, in-flight finishing)\n", s)
		drained := srv.Drain(*drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = hs.Shutdown(ctx)
		cancel()
		if !drained {
			fmt.Fprintln(os.Stderr, "falcon-serve: drain timed out with requests still in flight")
			os.Exit(1)
		}
		fmt.Println("falcon-serve: drained, durability epoch sealed")
	}
}

// preload inserts the initial kv rows directly through the engine before the
// serving pool starts — batched, rotating across the engine workers so every
// thread's heap range fills evenly (slots are partitioned per thread).
func preload(e *core.Engine, records uint64) error {
	t := e.Table("kv")
	s := t.Schema()
	threads := e.Config().Threads
	const batch = 256
	for lo := uint64(0); lo < records; lo += batch {
		hi := lo + batch
		if hi > records {
			hi = records
		}
		err := e.Run(int(lo/batch)%threads, func(tx *core.Txn) error {
			buf := make([]byte, s.TupleSize())
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
			return fmt.Errorf("rows [%d,%d): %w", lo, hi, err)
		}
	}
	return nil
}

// srvWorkers/srvQueue mirror server.New's defaulting for the startup banner.
func srvWorkers(w, threads int) int {
	if w <= 0 || w > threads {
		return threads
	}
	return w
}

func srvQueue(q, w, threads int) int {
	if q > 0 {
		return q
	}
	return 4 * srvWorkers(w, threads)
}
