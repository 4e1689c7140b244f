package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// smokeGolden is the default run's stdout, written once by the binary
// before it gained run and never regenerated.
var smokeGolden = filepath.Join("testdata", "smoke.golden")

// runDomainobs runs the command in process and returns its exit code,
// stdout and stderr.
func runDomainobs(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestRunSmoke: the default run prints the golden.
func TestRunSmoke(t *testing.T) {
	want, err := os.ReadFile(smokeGolden)
	if err != nil {
		t.Fatal(err)
	}
	code, got, errOut := runDomainobs()
	if code != 0 || errOut != "" {
		t.Fatalf("exit %d, stderr %q", code, errOut)
	}
	if got != string(want) {
		t.Errorf("output differs from %s:\n%s", smokeGolden, got)
	}
}

// TestRunUsage pins the exit codes: -h prints the usage and exits 0, a
// bad flag exits 2.
func TestRunUsage(t *testing.T) {
	code, out, errOut := runDomainobs("-h")
	if code != 0 || out != "" || !strings.Contains(errOut, "-seed") {
		t.Errorf("-h: exit %d, stdout %q, stderr %q", code, out, errOut)
	}
	if code, _, _ := runDomainobs("-no-such-flag"); code != 2 {
		t.Errorf("bad flag exited %d, want 2", code)
	}
}
