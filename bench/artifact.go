package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
)

const artifactSchema = "booterscope-bench/1"

// artifact is one set of runs written by -out: what was measured, on
// what, with what settings. -compare reads two of them.
type artifact struct {
	Schema  string    `json:"schema"`
	Env     envBlock  `json:"env"`
	Trace   bool      `json:"trace"`
	Seconds float64   `json:"seconds"`
	Smoke   bool      `json:"smoke"`
	Results []*result `json:"results"`
}

// envBlock records where and how an artifact was produced, so a number
// is never separated from the hardware and settings behind it.
type envBlock struct {
	Commit      string `json:"commit"`
	GoVersion   string `json:"go_version"`
	GOOS        string `json:"goos"`
	GOARCH      string `json:"goarch"`
	CPUModel    string `json:"cpu_model"`
	NProc       int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	Seed        uint64 `json:"seed"`
	Parallelism int    `json:"pipeline_parallelism"`
	FlushPolicy string `json:"flush_policy"`
	Network     string `json:"network"`
}

const (
	flushPolicyNote = "flowstore default: fsync on segment seal, manifest by atomic rename"
	networkNote     = "host loopback UDP and the sandbox's page cache; latencies are not a wire's or a device's"
)

// collectEnv fills the environment block. It is only called when an
// artifact is being written: a plain run reads nothing outside its
// checkout.
func collectEnv(seed uint64) envBlock {
	return envBlock{
		Commit:      commitID(),
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		CPUModel:    cpuModel(),
		NProc:       runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Seed:        seed,
		Parallelism: pipelineParallelism,
		FlushPolicy: flushPolicyNote,
		Network:     networkNote,
	}
}

// commitID is the VCS revision stamped into the binary, else what git
// says about the working directory, else "unknown".
func commitID() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "+dirty"
			}
			return rev
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}

func (a *artifact) write(path string) error {
	data, err := json.MarshalIndent(a, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func loadArtifact(path string) (*artifact, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var a artifact
	if err := json.Unmarshal(data, &a); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if a.Schema != artifactSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, a.Schema, artifactSchema)
	}
	return &a, nil
}

func (a *artifact) result(workload string) *result {
	for _, r := range a.Results {
		if r.Workload == workload {
			return r
		}
	}
	return nil
}
