package main

import (
	"bytes"
	"regexp"
	"strconv"
	"testing"

	"booterscope/internal/flow"
	"booterscope/internal/flowstore"
)

// demoRun runs the collector's -demo mode in process and returns its
// exit code and stdout; stderr goes to the test log.
func demoRun(t *testing.T, args ...string) (int, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(append([]string{"-demo", "-listen", "127.0.0.1:0", "-scale", "0.1"}, args...), &stdout, &stderr)
	if stderr.Len() > 0 {
		t.Logf("collector %v stderr:\n%s", args, stderr.String())
	}
	return code, stdout.String()
}

// counts extracts the integers a line matching re captures, failing the
// test when no line matches.
func counts(t *testing.T, out, re string) []uint64 {
	t.Helper()
	m := regexp.MustCompile(re).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no line matches %q in:\n%s", re, out)
	}
	var ns []uint64
	for _, s := range m[1:] {
		n, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		ns = append(ns, n)
	}
	return ns
}

// TestRunDemoSmoke drives the binary end to end over loopback UDP:
// exporter → socket → collector (its lent-slab handler) → sharded
// monitor. Every record the demo sends is collected, the alert count
// does not depend on the shard count, and under injected loss the chaos
// ledger agrees with the collector's own loss accounting (the binary
// exits 1 when it does not). With -store.dir every collected record goes
// through the archive tee and its shard flushers to disk: the printed
// store ledger matches the drained count, and a reopened store scans
// exactly those records.
func TestRunDemoSmoke(t *testing.T) {
	var alerts []uint64
	for _, par := range []string{"1", "2"} {
		code, out := demoRun(t, "-parallelism", par)
		if code != 0 {
			t.Fatalf("-parallelism %s exited %d:\n%s", par, code, out)
		}
		sent := counts(t, out, `demo exporter sent (\d+) records`)[0]
		drained := counts(t, out, `drained: (\d+) records collected, (\d+) alerts raised`)
		if drained[0] != sent || sent == 0 {
			t.Fatalf("-parallelism %s collected %d of the %d records the demo sent", par, drained[0], sent)
		}
		alerts = append(alerts, drained[1])
	}
	if alerts[0] != alerts[1] || alerts[0] == 0 {
		t.Fatalf("alerts at -parallelism 1 and 2: %d and %d, want equal and nonzero", alerts[0], alerts[1])
	}

	code, out := demoRun(t, "-parallelism", "2", "-loss", "0.05")
	if code != 0 {
		t.Fatalf("-loss 0.05 exited %d:\n%s", code, out)
	}
	sent := counts(t, out, `demo exporter sent (\d+) records`)[0]
	collected := counts(t, out, `drained: (\d+) records collected`)[0]
	dropped := counts(t, out, `chaos ledger: .* (\d+) records dropped`)[0]
	lost := counts(t, out, `domain \d+: \d+ msgs, \d+ records, (\d+) lost`)[0]
	// A drop at the very end of the stream is invisible to both sides (no
	// later sequence number reveals it), so collected + dropped may fall
	// short of sent; the ledger and the collector must still agree.
	if dropped == 0 || lost != dropped || collected >= sent {
		t.Fatalf("under loss: %d sent, %d collected, ledger dropped %d, collector lost %d", sent, collected, dropped, lost)
	}

	dir := t.TempDir()
	code, out = demoRun(t, "-parallelism", "2", "-store.dir", dir)
	if code != 0 {
		t.Fatalf("-store.dir exited %d:\n%s", code, out)
	}
	collected = counts(t, out, `drained: (\d+) records collected`)[0]
	ledger := counts(t, out, `store .*: (\d+) records appended, (\d+) durable, (\d+) dropped`)
	if collected == 0 || ledger[0] != collected || ledger[1] != collected || ledger[2] != 0 {
		t.Fatalf("store ledger %v (appended, durable, dropped) for %d records collected", ledger, collected)
	}
	st, err := flowstore.Open(dir, flowstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var scanned uint64
	if _, err := st.Scan(flowstore.Query{}, func(*flow.Record) error { scanned++; return nil }); err != nil {
		t.Fatal(err)
	}
	if scanned != collected {
		t.Fatalf("reopened store scans %d records, collector archived %d", scanned, collected)
	}
}
