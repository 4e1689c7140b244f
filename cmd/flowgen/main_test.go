package main

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"booterscope/internal/core"
	"booterscope/internal/trafficgen"
)

// runFlowgen runs the command in process and returns its exit code,
// stdout and stderr.
func runFlowgen(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestRunFlags pins the exit codes of -h, a bad flag, and a flag
// combination generation refuses.
func TestRunFlags(t *testing.T) {
	for _, tc := range []struct {
		args     []string
		code     int
		inStderr string
	}{
		{[]string{"-h"}, 0, "-vantage"},
		{[]string{"-no-such-flag"}, 2, "-no-such-flag"},
		{[]string{"-vantage", "all"}, 1, "requires -out"},
	} {
		code, _, errOut := runFlowgen(tc.args...)
		if code != tc.code || !strings.Contains(errOut, tc.inStderr) {
			t.Errorf("%v: exit %d, stderr %q; want exit %d mentioning %q", tc.args, code, errOut, tc.code, tc.inStderr)
		}
	}
}

// TestRunArchive: an archive written by -out -vantage all replays to
// the same Section 5.2 analysis, vantage by vantage, as the archive
// core.GenerateReplay writes for the same seed and scale.
func TestRunArchive(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "archive")
	code, out, errOut := runFlowgen("-out", dir, "-vantage", "all", "-scale", "0.02")
	if code != 0 || errOut != "" {
		t.Fatalf("exit %d, stderr %q", code, errOut)
	}
	if !strings.Contains(out, "replay with: takedown -store.dir "+dir) {
		t.Errorf("stdout lacks the replay hint:\n%s", out)
	}
	got, err := core.OpenReplay(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()
	t.Setenv("TMPDIR", t.TempDir())
	want, err := core.GenerateReplay(core.Options{Seed: 1, Scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	defer want.Close()
	for _, k := range []trafficgen.Kind{trafficgen.KindIXP, trafficgen.KindTier1, trafficgen.KindTier2} {
		g, err := got.Analyze(k)
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		w, err := want.Analyze(k)
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if !reflect.DeepEqual(g, w) {
			t.Errorf("%v: flowgen archive analysis differs from GenerateReplay's", k)
		}
	}
}

// TestRunPacketExport: packet mode writes a non-empty IPFIX export
// file and says how many packets it holds.
func TestRunPacketExport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flows.bin")
	code, out, errOut := runFlowgen("-o", path, "-format", "ipfix", "-scale", "0.02")
	if code != 0 || errOut != "" {
		t.Fatalf("exit %d, stderr %q", code, errOut)
	}
	if !strings.HasPrefix(out, "wrote ") || !strings.Contains(out, "ipfix export packets") {
		t.Errorf("stdout = %q", out)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
		t.Errorf("export file: %v, %v", fi, err)
	}
}
