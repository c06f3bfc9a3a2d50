// Command tsmod is the solver daemon: it serves the solver-as-a-service
// HTTP API of internal/service — job submission with backpressure, live
// status with the evolving Pareto front, an SSE event stream per job, and
// the debug endpoints of internal/telemetry — on one address.
//
//	tsmod -addr :8080 -workers 2 -queue 8
//	curl -X POST localhost:8080/v1/jobs -d '{"instance":{"class":"R1","n":100},"algorithm":"asynchronous","processors":3}'
//	curl -N localhost:8080/v1/jobs/j000001/events
//
// SIGINT/SIGTERM trigger a graceful drain: intake stops (503), queued and
// running jobs finish — bounded by -drain-timeout, after which they are
// cancelled and keep their partial fronts — and the process exits 0.
//
// With -data-dir the daemon is durable: submissions are journaled before
// they are acknowledged, running searches checkpoint every -ckpt-every
// iterations, and a restart — graceful or kill -9 — recovers every job:
// finished ones keep serving their results, interrupted ones resume from
// their last checkpoint and produce the same front they would have
// produced uninterrupted (on the deterministic sim backend).
//
// tsmod also speaks cluster. With -cluster-listen it becomes a
// coordinator instead of a solver: it routes POST /v1/jobs across the
// -peers daemons, heartbeats them, steals queued work from hot nodes, and
// migrates in-flight jobs off dead ones by shipping their checkpoints.
// With -join a solver daemon gathers cross-node share batches through the
// coordinator's share proxy, enabling cluster-wide collaborative search:
//
//	tsmod -addr :8081 -join http://coord:8080          # member
//	tsmod -addr :8082 -join http://coord:8080          # member
//	tsmod -cluster-listen :8080 -peers http://host1:8081,http://host2:8082
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/cluster"
	"repro/internal/service"
	"repro/internal/tenant"
)

func main() {
	var (
		addr         = flag.String("addr", "localhost:8080", "listen address")
		workers      = flag.Int("workers", 2, "worker-pool size (jobs solved concurrently)")
		queue        = flag.Int("queue", 8, "queued-job bound; submissions beyond it get 429")
		retain       = flag.Int("retain", 64, "finished jobs kept for status/result queries")
		maxEvals     = flag.Int("max-evals", 1_000_000, "per-job evaluation-budget cap")
		maxProcs     = flag.Int("max-procs", 16, "per-job processor cap")
		maxCustomers = flag.Int("max-customers", 1000, "instance-size cap in customers, for submitted and PATCH-grown instances")
		maxWall      = flag.Float64("max-wall", 0, "per-job wall-clock deadline cap in seconds (0 = none)")
		dataDir      = flag.String("data-dir", "", "durable state directory: job journal, checkpoints, results (empty = in-memory)")
		ckptEvery    = flag.Int("ckpt-every", 0, "search-checkpoint interval in iterations for durable jobs (0 = default 500)")
		traceDir     = flag.String("trace-dir", "", "directory receiving per-job OTLP/JSON trace exports (empty = off)")
		traceURL     = flag.String("trace-collector", "", "OTLP/HTTP collector endpoint for terminal-job traces, e.g. http://collector:4318/v1/traces (empty = off)")
		tenantKeys   = flag.String("tenant-keys", "", "tenant keyfile: API keys, quotas and fair-share weights (empty = anonymous single-tenant)")
		drainTimeout = flag.Duration("drain-timeout", time.Minute, "grace period for running jobs on shutdown")
		logLevel     = flag.String("log-level", "info", "slog level: debug, info, warn or error")
		version      = flag.Bool("version", false, "print the version and exit")

		clusterListen = flag.String("cluster-listen", "", "coordinator mode: serve the cluster API on this address instead of solving (requires -peers)")
		peers         = flag.String("peers", "", "coordinator mode: comma-separated member base URLs, e.g. http://h1:8081,http://h2:8082")
		clusterTick   = flag.Duration("cluster-tick", time.Second, "coordinator mode: heartbeat/steal/migration cadence")
		join          = flag.String("join", "", "member mode: coordinator base URL for cross-node share gathering")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.Version())
		return
	}
	var tenants *tenant.Registry
	if *tenantKeys != "" {
		var err error
		if tenants, err = tenant.LoadKeyfile(*tenantKeys, nil); err != nil {
			fmt.Fprintln(os.Stderr, "tsmod:", err)
			os.Exit(1)
		}
	}
	if *clusterListen != "" {
		if err := runCoordinator(*clusterListen, *peers, *clusterTick, *logLevel, tenants); err != nil {
			fmt.Fprintln(os.Stderr, "tsmod:", err)
			os.Exit(1)
		}
		return
	}
	cfg := service.Config{
		Workers:         *workers,
		QueueDepth:      *queue,
		RetainJobs:      *retain,
		MaxEvaluations:  *maxEvals,
		MaxProcessors:   *maxProcs,
		MaxCustomers:    *maxCustomers,
		MaxWallSeconds:  *maxWall,
		DataDir:         *dataDir,
		CheckpointEvery: *ckptEvery,
		TraceDir:        *traceDir,
		TraceCollector:  *traceURL,
		Tenants:         tenants,
		Version:         buildinfo.Version(),
	}
	if *join != "" {
		cfg.ShareDial = cluster.Dialer(normalizeURL(*join), http.DefaultClient)
	}
	if err := run(*addr, cfg, *drainTimeout, *logLevel); err != nil {
		fmt.Fprintln(os.Stderr, "tsmod:", err)
		os.Exit(1)
	}
}

// run serves until SIGINT/SIGTERM, then drains and returns nil on a clean
// shutdown. Split from main for the shutdown tests.
func run(addr string, cfg service.Config, drainTimeout time.Duration, logLevel string) error {
	var level slog.Level
	if err := level.UnmarshalText([]byte(logLevel)); err != nil {
		return fmt.Errorf("parsing -log-level: %w", err)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
	cfg.Logger = logger

	svc, err := service.Open(cfg)
	if err != nil {
		return err
	}
	srv := &http.Server{Addr: addr, Handler: svc.Handler()}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		svc.Close()
		return err
	}
	logger.Info("tsmod listening", "addr", ln.Addr().String(),
		"workers", cfg.Workers, "queue", cfg.QueueDepth,
		"data_dir", cfg.DataDir, "version", cfg.Version)

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-serveErr:
		svc.Close()
		return err
	case <-ctx.Done():
	}
	stop() // restore default signal handling: a second signal kills us

	logger.Info("shutting down", "drain_timeout", drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	// Stop the listener first so the drain observes no new submissions,
	// then let the jobs finish. Shutdown waits for idle connections only;
	// open SSE streams are torn down by the service's stop channel.
	shutdownCtx, cancelShutdown := context.WithTimeout(context.Background(), time.Second)
	defer cancelShutdown()
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Warn("http shutdown", "error", err)
	}
	if err := svc.Drain(drainCtx); err != nil {
		return err
	}
	srv.Close() //nolint:errcheck // lingering streams after drain
	logger.Info("drained, exiting")
	return nil
}

// runCoordinator serves the cluster API over a static peer list, driving
// the heartbeat/steal/migration loop every tick until SIGINT/SIGTERM.
// With a tenant registry, placement becomes tenant-aware: submissions
// authenticate locally and spread by per-tenant backlog across members.
func runCoordinator(addr, peerList string, tick time.Duration, logLevel string, tenants *tenant.Registry) error {
	var level slog.Level
	if err := level.UnmarshalText([]byte(logLevel)); err != nil {
		return fmt.Errorf("parsing -log-level: %w", err)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	var peers []string
	for _, p := range strings.Split(peerList, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peers = append(peers, normalizeURL(p))
		}
	}
	if len(peers) == 0 {
		return fmt.Errorf("-cluster-listen requires -peers (comma-separated member URLs)")
	}
	if tick <= 0 {
		tick = time.Second
	}

	coord := cluster.New(cluster.Config{
		Peers:   peers,
		Logger:  logger,
		Tenants: tenants,
		Version: buildinfo.Version(),
	})
	srv := &http.Server{Addr: addr, Handler: coord.Handler()}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	logger.Info("tsmod coordinator listening", "addr", ln.Addr().String(),
		"peers", peers, "tick", tick, "version", buildinfo.Version())

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	for {
		select {
		case err := <-serveErr:
			return err
		case <-ctx.Done():
			stop()
			logger.Info("coordinator shutting down")
			shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			return srv.Shutdown(shutdownCtx)
		case <-ticker.C:
			rep := coord.Tick()
			if rep.Migrations > 0 || rep.Steals > 0 || rep.Dead > 0 {
				logger.Info("cluster tick", "alive", rep.Alive, "dead", rep.Dead,
					"migrations", rep.Migrations, "steals", rep.Steals)
			}
		}
	}
}

// normalizeURL defaults a bare host:port to the http scheme.
func normalizeURL(u string) string {
	if strings.Contains(u, "://") {
		return u
	}
	return "http://" + u
}
