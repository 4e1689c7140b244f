package debugserver

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"booterscope/internal/telemetry"
)

func newTestRegistry() *telemetry.Registry {
	r := telemetry.NewRegistry()
	r.Counter("ipfix_collector_messages_total", "msgs").Add(3)
	vec := telemetry.NewCounterVec("kind")
	r.MustRegister("chaos_proxy_faults_total", "faults", vec)
	vec.With("drop").Inc()
	return r
}

func get(t *testing.T, h http.Handler, path string) (int, string) {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	body, err := io.ReadAll(w.Result().Body)
	if err != nil {
		t.Fatal(err)
	}
	return w.Result().StatusCode, string(body)
}

func TestHandlerSurfaces(t *testing.T) {
	h := handler(newTestRegistry(), nil, nil)

	code, body := get(t, h, "/metrics")
	if code != http.StatusOK || !strings.Contains(body, "ipfix_collector_messages_total 3") {
		t.Fatalf("/metrics = %d:\n%s", code, body)
	}
	if !strings.Contains(body, `chaos_proxy_faults_total{kind="drop"} 1`) {
		t.Fatalf("/metrics missing vec sample:\n%s", body)
	}

	code, body = get(t, h, "/metrics.json")
	if code != http.StatusOK {
		t.Fatalf("/metrics.json = %d", code)
	}
	var snap telemetry.Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/metrics.json not valid JSON: %v\n%s", err, body)
	}
	if snap.Counters["ipfix_collector_messages_total"] != 3 {
		t.Fatalf("JSON snapshot = %+v", snap.Counters)
	}

	code, _ = get(t, h, "/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz = %d", code)
	}

	// pprof index and a non-blocking profile endpoint respond.
	code, body = get(t, h, "/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/ = %d:\n%s", code, body)
	}
	code, _ = get(t, h, "/debug/pprof/cmdline")
	if code != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline = %d", code)
	}

	// Unknown paths, and the span endpoint retired with the tracer, are
	// neither served nor listed.
	for _, name := range []string{"nope", "spans"} {
		if code, _ = get(t, h, "/"+name); code != http.StatusNotFound {
			t.Fatalf("/%s = %d, want 404", name, code)
		}
	}
	if _, body = get(t, h, "/"); strings.Contains(body, "spans") {
		t.Fatalf("index still lists spans:\n%s", body)
	}
}

func TestStartServesAndCloses(t *testing.T) {
	srv, err := Start("127.0.0.1:0", newTestRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "ipfix_collector_messages_total") {
		t.Fatalf("live /metrics = %d:\n%s", resp.StatusCode, body)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestDrainingFlipsHealthzBeforeShutdown(t *testing.T) {
	srv, err := Start("127.0.0.1:0", newTestRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	status := func() int {
		resp, err := http.Get("http://" + srv.Addr() + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := status(); code != http.StatusOK {
		t.Fatalf("healthy /healthz = %d, want 200", code)
	}
	// The drain sequence: probes fail first, the socket closes after.
	srv.SetDraining(true)
	if code := status(); code != http.StatusServiceUnavailable {
		t.Fatalf("draining /healthz = %d, want 503", code)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if _, err := http.Get("http://" + srv.Addr() + "/healthz"); err == nil {
		t.Fatal("server still accepting connections after Shutdown")
	}
}

func TestStartEmptyAddrIsNoop(t *testing.T) {
	srv, err := Start("", telemetry.NewRegistry())
	if err != nil || srv != nil {
		t.Fatalf("Start(\"\") = %v, %v; want nil, nil", srv, err)
	}
}
