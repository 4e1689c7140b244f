// Command collector is a production-style IPFIX collector with live NTP
// amplification detection, run as an always-on daemon: it listens for
// export packets over UDP, decodes them, and raises one alert line per
// victim crossing the study's conservative attack thresholds.
//
// Daemon lifecycle (see DESIGN.md §11):
//
//   - -checkpoint.dir enables crash safety: monitor state is snapshotted
//     atomically every -checkpoint.every, and a restarted collector
//     restores the last snapshot and replays the -store.dir archive past
//     its durability watermark — detection resumes with no gap in the
//     minute-bin series and no double counting.
//   - SIGTERM/SIGINT drain gracefully: /healthz flips to 503 first, the
//     socket closes, shard queues flush, a final checkpoint is
//     published, mitigations are withdrawn, and the full loss
//     accounting prints — degraded collection is never silent.
//   - SIGHUP re-reads the -thresholds file and swaps the classifier
//     config in-process; the UDP socket is untouched.
//   - Under overload the daemon walks a declared degradation ladder
//     (widen sampling, then stop archiving) to protect its detection
//     latency SLO; classification itself is never shed.
//   - -mitigate closes the detect→mitigate loop, emitting BGP FlowSpec
//     discard rules on sustained attacks and withdrawing them on drain.
//
// With -demo it additionally spins up an internal exporter feeding a day
// of synthetic tier-2 traffic through the socket and exits when done —
// through the same drain barrier as SIGTERM. Adding -loss (and
// optionally -reorder, -chaosseed) routes the demo traffic through a
// chaos.Proxy so the degraded-collection accounting can be watched
// live:
//
//	go run ./cmd/collector -demo -loss 0.05 -reorder 0.01
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"booterscope/internal/bgp"
	"booterscope/internal/chaos"
	"booterscope/internal/classify"
	"booterscope/internal/core"
	"booterscope/internal/flow"
	"booterscope/internal/flowstore"
	"booterscope/internal/ipfix"
	"booterscope/internal/pipe"
	"booterscope/internal/service"
	"booterscope/internal/telemetry"
	"booterscope/internal/telemetry/debugserver"
	"booterscope/internal/telemetry/eventlog"
	"booterscope/internal/trafficgen"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// lockedWriter serializes writes: alert lines print from the shard
// workers while the main goroutine prints accounting.
type lockedWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (l *lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

// run is the collector with its arguments and output streams passed
// in, so a test can drive it in process; it returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("collector", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		listen      = fs.String("listen", "127.0.0.1:4739", "UDP listen address (4739 is the IPFIX port)")
		demo        = fs.Bool("demo", false, "feed a day of synthetic traffic through the socket and exit")
		seed        = fs.Uint64("seed", 1, "demo traffic seed")
		scale       = fs.Float64("scale", 0.3, "demo traffic scale")
		loss        = fs.Float64("loss", 0, "demo fault injection: datagram drop rate through chaos.Proxy")
		reorder     = fs.Float64("reorder", 0, "demo fault injection: datagram reorder rate")
		chaosSeed   = fs.Uint64("chaosseed", 7, "fault injection seed")
		dashEvery   = fs.Duration("dashboard", 0, "print a telemetry dashboard to stderr at this interval (0 disables)")
		storeDir    = fs.String("store.dir", "", "persist decoded flow records into a flowstore archive at this directory")
		par         = fs.Int("parallelism", 0, "detection pipeline shard count: 0 = NumCPU, 1 = serial (alerts identical)")
		ckptDir     = fs.String("checkpoint.dir", "", "checkpoint monitor state into this directory (enables restore-on-start)")
		ckptEvery   = fs.Duration("checkpoint.every", time.Minute, "checkpoint interval (with -checkpoint.dir)")
		evalEvery   = fs.Duration("slo.every", 5*time.Second, "overload/SLO evaluation interval; each evaluation also hands idle shards the records a quiet exporter left in their slabs")
		sloP99      = fs.Duration("slo.p99", 0, "detection-latency p99 objective (0: 250ms default)")
		mitigate    = fs.Bool("mitigate", false, "announce BGP FlowSpec discard rules on sustained attacks")
		thresholds  = fs.String("thresholds", "", "JSON file with classifier thresholds; re-read on SIGHUP (empty: paper defaults)")
		incidentDir = fs.String("incident.dir", "", "dump the flight-recorder event ring here when an incident trigger fires (SLO burn breach, shed escalation, drain, checkpoint failure)")
		ringSize    = fs.Int("incident.ring", eventlog.DefaultRingSize, "flight-recorder event ring capacity")
	)
	debugAddr := debugserver.AddrFlag(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	stdout = &lockedWriter{w: stdout}
	logger := log.New(stderr, "collector: ", 0)

	cfg, err := loadThresholds(*thresholds)
	if err != nil {
		logger.Print(err)
		return 1
	}

	col, err := ipfix.NewCollector(*listen)
	if err != nil {
		logger.Print(err)
		return 1
	}
	defer col.Close()
	fmt.Fprintf(stdout, "listening for IPFIX on %s\n", col.Addr())

	// A registry per run, not the process-wide one: run may be called
	// more than once in a process (its smoke test does).
	reg := telemetry.NewRegistry()
	col.RegisterTelemetry(reg)
	pipe.RegisterTelemetry(reg)

	// The flight recorder is process-wide: every component (ipfix, pipe,
	// classify, service, flowstore, bgp) emits into the same ring, so an
	// incident dump carries the full cross-layer story.
	events := eventlog.New(*ringSize)
	eventlog.SetActive(events)
	events.RegisterTelemetry(reg)
	if *incidentDir != "" {
		if err := os.MkdirAll(*incidentDir, 0o755); err != nil {
			logger.Print(err)
			return 1
		}
		fmt.Fprintf(stdout, "incident dumps to %s\n", *incidentDir)
	}

	var store *flowstore.Store
	if *storeDir != "" {
		flowstore.RegisterTelemetry(reg)
		store, err = flowstore.Open(*storeDir, flowstore.Options{
			Meta: map[string]string{"study": "collector", "listen": *listen},
		})
		if err != nil {
			logger.Print(err)
			return 1
		}
		if r := store.Recovery(); r.RecoveredSegments > 0 || r.TornSegments > 0 {
			fmt.Fprintf(stdout, "store recovery: %d segments adopted (%d records), %d torn tails truncated (%d bytes)\n",
				r.RecoveredSegments, r.RecoveredRecords, r.TornSegments, r.TruncatedBytes)
		}
		fmt.Fprintf(stdout, "archiving decoded records to %s\n", *storeDir)
	}

	// The detection daemon: sharded monitor behind the fan-out, with
	// checkpoint/restore, the overload ladder, and the mitigation loop.
	var alerts atomic.Int64
	svc, err := service.New(service.Options{
		Classify:      cfg,
		Parallelism:   *par,
		CheckpointDir: *ckptDir,
		Store:         store,
		OnAlert: func(a classify.Alert) {
			alerts.Add(1)
			fmt.Fprintln(stdout, a)
		},
		Mitigation: service.MitigationOptions{
			Enabled:  *mitigate,
			Announce: func(r bgp.FlowSpecRule) { fmt.Fprintf(stdout, "mitigate: announce %s\n", r) },
			Withdraw: func(r bgp.FlowSpecRule) { fmt.Fprintf(stdout, "mitigate: withdraw %s\n", r) },
		},
		SLO:         service.SLOOptions{TargetP99: *sloP99},
		QueueDepth:  col.QueueDepth,
		Registry:    reg,
		Events:      events,
		IncidentDir: *incidentDir,
	})
	if err != nil {
		logger.Print(err)
		return 1
	}
	if rr := svc.Restore(); rr.Corrupt {
		logger.Print("checkpoint corrupt: cold start (archive replay rebuilds state)")
	} else if rr.Restored {
		wm := "none"
		if rr.Watermark != math.MinInt64 {
			wm = time.Unix(rr.Watermark, 0).UTC().Format(time.RFC3339)
		}
		fmt.Fprintf(stdout, "restored checkpoint: watermark %s, seq %d, %d archive records covered\n",
			wm, rr.Seq, rr.StoreDurable)
	}
	if store != nil && *ckptDir != "" {
		n, err := svc.ReplayFromStore()
		if err != nil {
			logger.Printf("archive replay: %v", err)
			return 1
		}
		if n > 0 {
			fmt.Fprintf(stdout, "replayed %d archive records past the checkpoint watermark\n", n)
		}
	}

	srv, err := debugserver.Start(*debugAddr, reg)
	if err != nil {
		logger.Print(err)
		return 1
	}
	if srv != nil {
		defer srv.Close()
		fmt.Fprintf(stdout, "debug surface on http://%s/ (metrics, pprof)\n", srv.Addr())
	}
	if *dashEvery > 0 {
		dash := telemetry.NewDashboard(reg, os.Stderr, *dashEvery)
		// Mean routed-slab size, next to service_partial_flushes_total:
		// how far the hand-over policy lets slabs fill under this load.
		dash.Ratio("pipe_routed_slab_mean_records", "pipe_records_routed_total", "pipe_batches_routed_total")
		dash.Start()
		defer dash.Stop()
	}

	var records atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		err := col.Run(func(recs []flow.Record) {
			records.Add(int64(len(recs)))
			// Ingest archives (unless shed) and fans out to the monitor
			// shards; the fan-out copies records into per-shard slabs, so
			// the decoder may reuse recs as soon as it returns.
			if err := svc.Ingest(recs); err != nil && !errors.Is(err, service.ErrDraining) {
				logger.Printf("detection pipeline: %v", err)
			}
		})
		if err != nil {
			logger.Print(err)
		}
	}()

	serveCtx, stopServe := context.WithCancel(context.Background())
	defer stopServe()
	go svc.Serve(serveCtx, *ckptEvery, *evalEvery)

	// shutdown is the single drain barrier every exit path goes
	// through — demo completion and SIGTERM/SIGINT alike: probes flip
	// to draining, the socket closes, shard queues flush, the final
	// checkpoint publishes, mitigations are withdrawn.
	shutdown := func(reason string) {
		fmt.Fprintf(stdout, "draining (%s)\n", reason)
		if srv != nil {
			srv.SetDraining(true) // probes fail before the socket closes
		}
		stopServe()
		col.Close()
		<-done
		rep, err := svc.Drain()
		if err != nil {
			logger.Printf("drain: %v", err)
		}
		if rep != nil {
			if rep.Checkpointed {
				fmt.Fprintf(stdout, "final checkpoint published to %s\n", *ckptDir)
			}
			if len(rep.Withdrawn) > 0 {
				fmt.Fprintf(stdout, "withdrew %d mitigation rules\n", len(rep.Withdrawn))
			}
			s := rep.Service
			fmt.Fprintf(stdout, "service: %d ingested, %d sampled out, %d archive-shed, %d refused, %d checkpoints (%d failed), %d replayed, %d reloads, %d SLO breaches\n",
				s.IngestedRecords, s.SampledOutRecords, s.ArchiveShedRecords, s.RefusedRecords,
				s.Checkpoints, s.CheckpointFailures, s.ReplayedRecords, s.Reloads, s.SLOBreaches)
		}
		fmt.Fprintf(stdout, "drained: %d records collected, %d alerts raised\n",
			records.Load(), alerts.Load())
		if srv != nil {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			_ = srv.Shutdown(ctx)
			cancel()
		}
	}

	if *demo {
		exitCode := 0
		exportAddr := col.Addr().String()
		var proxy *chaos.Proxy
		if *loss > 0 || *reorder > 0 {
			proxy, err = chaos.NewProxy("127.0.0.1:0", exportAddr, chaos.Plan{
				Seed:        *chaosSeed,
				DropRate:    *loss,
				ReorderRate: *reorder,
				IPFIXAware:  true,
			})
			if err != nil {
				logger.Print(err)
				return 1
			}
			proxy.RegisterTelemetry(reg)
			exportAddr = proxy.Addr().String()
			fmt.Fprintf(stdout, "demo traffic passes chaos proxy %s (loss %.1f%%, reorder %.1f%%)\n",
				proxy.Addr(), *loss*100, *reorder*100)
		}
		// An aborted demo still drains and reports below: the partial
		// accounting is exactly what a degraded run needs to show.
		if err := runDemo(stdout, exportAddr, *seed, *scale, reg); err != nil {
			logger.Printf("demo aborted: %v", err)
			exitCode = 1
		}
		if proxy != nil {
			proxy.Flush() // release a datagram held for reordering
		}
		waitQuiescent(&records)
		shutdown("demo complete")
		if proxy != nil {
			l := proxy.Ledger()
			fmt.Fprintf(stdout, "chaos ledger: %d received, %d forwarded, %d dropped, %d reordered, %d records dropped\n",
				l.Received, l.Forwarded, l.TotalDropped(), l.Reordered, l.TotalDroppedRecords())
			proxy.Close()
			if lost := col.Stats().LostRecords(); exitCode == 0 && lost != l.TotalDroppedRecords() {
				logger.Printf("accounting mismatch: collector lost %d records, chaos ledger dropped %d",
					lost, l.TotalDroppedRecords())
				exitCode = 1
			}
		}
		report(stdout, col, svc)
		closeStore(stdout, logger, store, *storeDir)
		return exitCode
	}

	term := make(chan os.Signal, 1)
	signal.Notify(term, os.Interrupt, syscall.SIGTERM)
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(term)
	defer signal.Stop(hup)
	for {
		select {
		case s := <-term:
			shutdown(s.String())
			report(stdout, col, svc)
			closeStore(stdout, logger, store, *storeDir)
			return 0
		case <-hup:
			// Threshold reload in-process: the UDP socket, monitor state,
			// and pipeline position all survive.
			next, err := loadThresholds(*thresholds)
			if err != nil {
				logger.Printf("reload: %v (keeping active thresholds)", err)
				continue
			}
			if err := svc.Reload(next); err != nil {
				logger.Printf("reload: %v", err)
				continue
			}
			c := svc.Config()
			fmt.Fprintf(stdout, "reloaded thresholds: size %.0fB, rate %.0f bps, sources %d\n",
				c.SizeThreshold, c.MinRateBps, c.MinSources)
		}
	}
}

// thresholdsFile is the -thresholds JSON schema; zero fields fall back
// to the paper's conservative defaults.
type thresholdsFile struct {
	SizeThreshold float64 `json:"size_threshold"`
	MinRateBps    float64 `json:"min_rate_bps"`
	MinSources    int     `json:"min_sources"`
}

// loadThresholds reads the classifier config from path (the startup and
// SIGHUP path); an empty path selects the paper's defaults.
func loadThresholds(path string) (classify.Config, error) {
	if path == "" {
		return classify.Config{}, nil
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return classify.Config{}, fmt.Errorf("thresholds: %w", err)
	}
	var tf thresholdsFile
	if err := json.Unmarshal(b, &tf); err != nil {
		return classify.Config{}, fmt.Errorf("thresholds %s: %w", path, err)
	}
	return classify.Config{
		SizeThreshold: tf.SizeThreshold,
		MinRateBps:    tf.MinRateBps,
		MinSources:    tf.MinSources,
	}, nil
}

// closeStore seals the archive (if one was requested) and prints its
// final ledger — the accounting a replay consumer checks against the
// collector's own loss report.
func closeStore(out io.Writer, logger *log.Logger, store *flowstore.Store, dir string) {
	if store == nil {
		return
	}
	if err := store.Close(); err != nil {
		logger.Printf("sealing store: %v", err)
	}
	s := store.Stats()
	fmt.Fprintf(out, "store %s: %d records appended, %d durable, %d dropped, %d segments, %d bytes\n",
		dir, s.RecordsAppended, s.RecordsDurable, s.RecordsDropped, s.SegmentsSealed, s.BytesWritten)
}

// waitQuiescent waits until the record counter has been stable for
// several polls (all in-flight datagrams decoded) or a timeout passes —
// a deterministic replacement for a fixed sleep, so -demo never
// under-reports on slow machines.
func waitQuiescent(records *atomic.Int64) {
	const (
		poll        = 20 * time.Millisecond
		stableNeed  = 5 // consecutive unchanged polls
		maxDrainFor = 5 * time.Second
	)
	deadline := time.Now().Add(maxDrainFor)
	last := records.Load()
	stable := 0
	for time.Now().Before(deadline) {
		time.Sleep(poll)
		cur := records.Load()
		if cur == last {
			stable++
			if stable >= stableNeed {
				return
			}
			continue
		}
		stable, last = 0, cur
	}
}

// report prints the collector and daemon accounting snapshots.
func report(out io.Writer, col *ipfix.Collector, svc *service.Service) {
	s := col.Stats()
	fmt.Fprintf(out, "collector: %s\n", col.Health())
	fmt.Fprintf(out, "  %d messages, %d bytes, %d records, %d shed, %d decode errors, %d without template\n",
		s.Messages, s.Bytes, s.Records, s.Shed, s.DecodeErrors, s.NoTemplate)
	for id, ds := range s.Domains {
		fmt.Fprintf(out, "  domain %d: %d msgs, %d records, %d lost (gap %d, late %d), %d dup, %d resets, %d unknown-template sets\n",
			id, ds.Messages, ds.Records, ds.LostRecords(), ds.SeqGapRecords,
			ds.SeqLateRecords, ds.DuplicateMessages, ds.SeqResets, ds.UnknownTemplateSets)
	}
	h := svc.Health()
	fmt.Fprintf(out, "monitor: %s\n", h.Monitor)
	if h.Shed != service.ShedNone || h.ActiveRules > 0 {
		fmt.Fprintf(out, "service: shed level %s, %d active mitigations\n", h.Shed, h.ActiveRules)
	}
}

// runDemo exports one synthetic day of tier-2 traffic to the collector.
func runDemo(out io.Writer, addr string, seed uint64, scale float64, reg *telemetry.Registry) error {
	scenario := trafficgen.NewScenario(trafficgen.Config{
		Start:    core.StudyStart,
		Days:     1,
		Takedown: core.TakedownDate,
		Seed:     seed,
		Scale:    scale,
	})
	records := scenario.Day(trafficgen.KindTier2, 0)
	exp, err := ipfix.NewExporter(addr, 64512)
	if err != nil {
		return err
	}
	defer exp.Close()
	exp.RegisterTelemetry(reg)
	// Lossy paths cannot wait 20 messages for a template refresh: make
	// every message self-describing.
	exp.SetTemplateRefresh(1)
	for i := 0; i < len(records); i += 50 {
		end := i + 50
		if end > len(records) {
			end = len(records)
		}
		if err := exp.Export(records[i:end], scenario.DayTime(0)); err != nil {
			return fmt.Errorf("exporting records %d..%d: %w", i, end, err)
		}
		if i%1000 == 0 {
			time.Sleep(time.Millisecond) // pace: UDP has no flow control
		}
	}
	fmt.Fprintf(out, "demo exporter sent %d records\n", len(records))
	return nil
}
