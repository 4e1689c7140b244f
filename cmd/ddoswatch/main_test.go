package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"booterscope/internal/core"
	"booterscope/internal/flowstore"
)

// smokeArgs is a tiny run: the default 30-day window at 2 % scale,
// serial.
var smokeArgs = []string{"-scale", "0.02", "-parallelism", "1"}

// smokeGolden is the default-mode stdout for smokeArgs, written once by
// the binary that still computed its figures from live generation, and
// never regenerated: replaying a generated archive must print what the
// live path printed, byte for byte.
var smokeGolden = filepath.Join("testdata", "smoke.golden")

// runDDoSWatch runs the command in process and returns its exit code,
// stdout and stderr.
func runDDoSWatch(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestRunSmoke: the default mode (generate into a temporary archive,
// replay it) prints the golden and leaves no archive behind.
func TestRunSmoke(t *testing.T) {
	want, err := os.ReadFile(smokeGolden)
	if err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	code, got, errOut := runDDoSWatch(smokeArgs...)
	if code != 0 || errOut != "" {
		t.Fatalf("exit %d, stderr %q", code, errOut)
	}
	if got != string(want) {
		t.Errorf("output differs from %s:\n%s", smokeGolden, got)
	}
	if left, _ := os.ReadDir(tmp); len(left) != 0 {
		t.Errorf("temporary archive left behind: %v", left)
	}
}

// TestRunStoreDir: an archive written as flowgen -out -days 30
// -vantage all writes it, replayed with -store.dir, prints the golden
// under its "replaying" header.
func TestRunStoreDir(t *testing.T) {
	want, err := os.ReadFile(smokeGolden)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	study := core.NewTakedownStudy(core.Options{Seed: 1, Scale: 0.02, Days: 30})
	if err := study.WriteArchive(dir, flowstore.Options{NoSync: true}); err != nil {
		t.Fatal(err)
	}
	code, got, errOut := runDDoSWatch("-store.dir", dir, "-parallelism", "1")
	if code != 0 || errOut != "" {
		t.Fatalf("exit %d, stderr %q", code, errOut)
	}
	header := "replaying 30-day archive " + dir + "\n"
	if body, ok := strings.CutPrefix(got, header); !ok || body != string(want) {
		t.Errorf("want %q then %s, got:\n%s", header, smokeGolden, got)
	}
}

// TestRunUsage pins the exit codes of a bad flag and of -correlate
// without -federate.
func TestRunUsage(t *testing.T) {
	if code, _, _ := runDDoSWatch("-no-such-flag"); code != 2 {
		t.Errorf("bad flag exited %d, want 2", code)
	}
	if code, _, errOut := runDDoSWatch("-correlate"); code != 1 || !strings.Contains(errOut, "requires -federate") {
		t.Errorf("-correlate alone: exit %d, stderr %q", code, errOut)
	}
}
