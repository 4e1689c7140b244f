// Package debugserver is the shared live-debug surface of every
// booterscope binary: pass -debug.addr (e.g. 127.0.0.1:6060) and the
// process serves its telemetry registry as Prometheus text on /metrics,
// as JSON on /metrics.json, the flight recorder's event ring on
// /events, reconstructed attack timelines on /attacks and
// /attacks/{id}, and the full net/http/pprof suite under
// /debug/pprof/. Without the flag nothing is started, so the default
// remains zero overhead.
package debugserver

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"booterscope/internal/telemetry"
	"booterscope/internal/telemetry/eventlog"
)

// AddrFlag registers the conventional -debug.addr flag on fs and
// returns the destination string. Every cmd binary calls this on the
// FlagSet its run function parses — not the process-wide one, since a
// smoke test calls run more than once per process.
func AddrFlag(fs *flag.FlagSet) *string {
	return fs.String("debug.addr", "",
		"serve /metrics, /metrics.json, /events, /attacks and /debug/pprof on this address (empty: disabled)")
}

// Server is a running debug HTTP server.
type Server struct {
	ln       net.Listener
	srv      *http.Server
	draining *atomic.Bool
}

// handler builds the debug mux over reg. draining, when non-nil, flips
// /healthz to 503 "draining" — load balancers stop sending probes to
// an instance that is shutting down before its sockets actually close.
// The event endpoints read eventlog.Active() per request, so a
// recorder installed after the server starts is still served. extra
// mounts subsystem-owned endpoints on the same mux — the seam binaries
// use to expose views the debug server cannot build itself, like the
// federation coordinator's /vantages. Extra paths are mounted in
// sorted order and listed on the index page; a path colliding with a
// built-in panics (mux rules).
func handler(reg *telemetry.Registry, draining *atomic.Bool, extra map[string]http.Handler) http.Handler {
	writeJSON := func(w http.ResponseWriter, v any) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(v)
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.PrometheusHandler())
	mux.Handle("/metrics.json", reg.JSONHandler())
	mux.HandleFunc("/events", func(w http.ResponseWriter, _ *http.Request) {
		evs := eventlog.Active().Snapshot()
		if evs == nil {
			evs = []eventlog.Event{}
		}
		writeJSON(w, evs)
	})
	mux.HandleFunc("/attacks", func(w http.ResponseWriter, _ *http.Request) {
		tls := eventlog.BuildTimelines(eventlog.Active().Snapshot())
		if tls == nil {
			tls = []eventlog.Timeline{}
		}
		writeJSON(w, tls)
	})
	mux.HandleFunc("/attacks/", func(w http.ResponseWriter, r *http.Request) {
		idStr := strings.TrimPrefix(r.URL.Path, "/attacks/")
		id, err := strconv.ParseUint(idStr, 10, 64)
		if err != nil || id == 0 {
			http.Error(w, "bad attack id", http.StatusBadRequest)
			return
		}
		tl := eventlog.TimelineFor(eventlog.Active().Snapshot(), id)
		if tl == nil {
			http.NotFound(w, r)
			return
		}
		writeJSON(w, tl)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		if draining != nil && draining.Load() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	extraPaths := make([]string, 0, len(extra))
	for p := range extra {
		extraPaths = append(extraPaths, p)
	}
	sort.Strings(extraPaths)
	extraIndex := ""
	for _, p := range extraPaths {
		mux.Handle(p, extra[p])
		extraIndex += fmt.Sprintf("%-14s subsystem endpoint\n", p)
	}
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, "booterscope debug surface\n\n"+
			"/metrics       Prometheus text format\n"+
			"/metrics.json  snapshot as JSON\n"+
			"/events        flight-recorder event ring\n"+
			"/attacks       reconstructed attack timelines\n"+
			"/attacks/{id}  one attack's lifecycle timeline\n"+
			"/healthz       liveness (503 while draining)\n"+
			"/debug/pprof/  Go profiling\n"+
			extraIndex)
	})
	return mux
}

// Start serves the debug surface for reg on addr. An empty addr is a
// no-op returning (nil, nil), so call sites stay one line:
//
//	dbg, err := debugserver.Start(*addr, telemetry.Default())
func Start(addr string, reg *telemetry.Registry) (*Server, error) {
	return StartWith(addr, reg, nil)
}

// StartWith is Start with subsystem endpoints mounted next to the
// built-ins (see handler).
func StartWith(addr string, reg *telemetry.Registry, extra map[string]http.Handler) (*Server, error) {
	if addr == "" {
		return nil, nil
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("debugserver: listening on %s: %w", addr, err)
	}
	draining := &atomic.Bool{}
	s := &Server{
		ln:       ln,
		draining: draining,
		srv: &http.Server{
			Handler:           handler(reg, draining, extra),
			ReadHeaderTimeout: 5 * time.Second,
		},
	}
	//bsvet:allow goroutinelifecycle Serve returns when Close/Shutdown closes the listener; the http.Server is the lifecycle
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// Addr reports the bound address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// SetDraining flips /healthz to 503 "draining" (or back). A draining
// daemon calls this the moment shutdown begins, before the pipeline
// flushes, so probes fail ahead of the socket closing.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

// Shutdown stops the server gracefully: no new connections, in-flight
// requests run to completion or until ctx expires.
func (s *Server) Shutdown(ctx context.Context) error { return s.srv.Shutdown(ctx) }

// Close stops the server immediately.
func (s *Server) Close() error { return s.srv.Close() }
