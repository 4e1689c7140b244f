// Command bench is booterscope's benchmark harness: one program that
// drives the three end-to-end paths — archive replay, archive ingest
// and live packet→alert — on generated inputs, checks every output
// against a reference computation, and prints each metric declared in
// BENCHMARK.json by name with its unit.
//
//	go run ./bench -workload replay_analyze -seed 17 -seconds 10 -trace 0
//	go run ./bench -out set.json            # every workload, one artifact
//	go run ./bench -trace 1 -out trace.json # per-layer metrics instead
//	go run ./bench -compare A.json B.json
//
// Untraced (-trace 0) a run emits the end-to-end metrics; traced
// (-trace 1) it emits the per-layer metrics, measured from outside by
// timing calls into each layer's public functions. The last line of
// standard output of a single-workload run is one JSON object:
// correct, attempted, failed, metrics. See README.md in this directory
// for the workload and metric catalogue.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// pipelineParallelism pins every pipeline's shard count (replay
// fan-out, federation classification, the live monitor), so results do
// not depend on how many cores the box happens to have beyond two.
const pipelineParallelism = 2

// setupRepeats is how many times an untraced run builds its input;
// setup_s is the median, so one slow build does not read as a
// regression.
const setupRepeats = 3

// runCtx carries one workload run's settings and scratch space.
type runCtx struct {
	seed    uint64
	seconds float64
	trace   bool
	// smoke shrinks every generated input to test size.
	smoke bool
	// workdir is this process's private scratch root; dir hands out
	// fresh subdirectories of it.
	workdir string
	nextDir int
	// tr is nil on an untraced run.
	tr *tracer
}

// dir creates a fresh scratch directory.
func (c *runCtx) dir(name string) (string, error) {
	c.nextDir++
	d := filepath.Join(c.workdir, fmt.Sprintf("%s-%d", name, c.nextDir))
	return d, os.MkdirAll(d, 0o755)
}

// setups is how many times this run builds its input.
func (c *runCtx) setups() int {
	if c.trace || c.smoke {
		return 1
	}
	return setupRepeats
}

// budget is the measuring time given to one phase that gets share of
// the run.
func (c *runCtx) budget(share float64) time.Duration {
	return time.Duration(c.seconds * share * float64(time.Second))
}

// workload is one named input → path pairing; why it exists is in
// BENCHMARK.json.
type workload struct {
	name string
	run  func(*runCtx) (*result, error)
}

var workloads = []workload{
	{"replay_analyze", runReplayAnalyze},
	{"replay_correlate", runReplayCorrelate},
	{"ingest_archive", runIngestArchive},
	{"live_saturate", runLiveSaturate},
	{"live_paced", runLivePaced},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// checkWorkloads requires BENCHMARK.json and the registry to name the
// same workloads.
func checkWorkloads(spec *benchSpec) error {
	if len(spec.Workloads) != len(workloads) {
		return fmt.Errorf("BENCHMARK.json declares %d workloads, the harness has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if findWorkload(w.Name) == nil {
			return fmt.Errorf("BENCHMARK.json declares workload %q, which the harness does not have", w.Name)
		}
	}
	return nil
}

// repeatSetup builds a workload's input n times and returns the last
// product with each build's wall time in seconds. The previous product
// is torn down, dropped and collected before the next build starts:
// otherwise every build after the first runs with the last one's
// hundreds of megabytes still live, and the builds being timed are not
// the same work.
func repeatSetup[T any](n int, build func() (T, error), teardown func(T)) (T, []float64, error) {
	var last, zero T
	secs := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if i > 0 {
			teardown(last)
			last = zero
		}
		settle()
		t0 := time.Now()
		v, err := build()
		if err != nil {
			return zero, nil, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		last = v
	}
	return last, secs, nil
}

// settle collects the garbage the previous phase left (set-up keeps
// ~100 MB of generated days alive until its reference is computed), so
// a measured phase starts from the same heap every run instead of
// inheriting a collection whose timing varies.
func settle() { runtime.GC() }

// measureFor runs pass back to back until d has elapsed, at least
// twice, and returns each pass's wall time in seconds. pass times
// itself, so untimed work (output checks, directory removal) can sit
// between measured intervals.
func measureFor(d time.Duration, pass func(i int) (time.Duration, error)) ([]float64, error) {
	settle()
	var walls []float64
	start := time.Now()
	for i := 0; i < 2 || time.Since(start) < d; i++ {
		w, err := pass(i)
		if err != nil {
			return nil, err
		}
		walls = append(walls, w.Seconds())
	}
	return walls, nil
}

// alternate runs plain and traced passes in turn until d has elapsed,
// at least two of each, so whatever drifts over the phase (heap
// growth, a noisy neighbour) lands on both sides alike and the
// difference between them is the tracing.
func alternate(d time.Duration, plain, traced func(i int) (time.Duration, error)) (plainWalls, tracedWalls []float64, err error) {
	settle()
	start := time.Now()
	for i := 0; i < 2 || time.Since(start) < d; i++ {
		w, err := plain(i)
		if err != nil {
			return nil, nil, err
		}
		plainWalls = append(plainWalls, w.Seconds())
		if w, err = traced(i); err != nil {
			return nil, nil, err
		}
		tracedWalls = append(tracedWalls, w.Seconds())
	}
	return plainWalls, tracedWalls, nil
}

// overhead is the tracing cost as a share of the plain pass wall: the
// median over the alternated pairs of (traced − plain) ÷ plain. Pairing
// first and taking the median second keeps drift across the phase out
// of it; a ratio of the two medians does not.
func overhead(plainWalls, tracedWalls []float64) float64 {
	ratios := make([]float64, len(plainWalls))
	for i, p := range plainWalls {
		ratios[i] = (tracedWalls[i] - p) / p
	}
	return median(ratios)
}

// perSecond turns per-pass wall seconds into per-pass rates.
func perSecond(records uint64, walls []float64) []float64 {
	out := make([]float64, len(walls))
	for i, w := range walls {
		out[i] = float64(records) / w
	}
	return out
}

// scaled multiplies every sample by f.
func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

// runWorkload runs one workload in its own scratch directory and
// validates what it emitted against BENCHMARK.json.
func runWorkload(spec *benchSpec, w *workload, c *runCtx) (*result, error) {
	if runtime.GOMAXPROCS(0) < 2 {
		// With one P the fan-out drives its shards inline: a different
		// program from the one deployed, so its numbers are refused.
		return nil, errors.New("GOMAXPROCS < 2: the pipeline fan-out would run inline; refusing to measure")
	}
	if c.trace {
		c.tr = newTracer(w.name)
	}
	res, err := w.run(c)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	if err := res.finalize(spec, c.trace); err != nil {
		return nil, err
	}
	return res, nil
}

// printRows writes the human-readable table of one result.
func printRows(out io.Writer, res *result) {
	for _, rw := range res.Rows {
		if !rw.Exercised {
			fmt.Fprintf(out, "%-17s %-38s %16s %-9s (layer not exercised)\n", res.Workload, rw.Name, "-", rw.Unit)
			continue
		}
		fmt.Fprintf(out, "%-17s %-38s %16.6g %-9s n=%-6d q1=%-11.5g q3=%-11.5g min=%-11.5g max=%-11.5g %s\n",
			res.Workload, rw.Name, rw.Value, rw.Unit, rw.N, rw.Q1, rw.Q3, rw.Min, rw.Max, rw.Note)
	}
	fmt.Fprintf(out, "%-17s records_attempted=%d records_failed=%d correct=%v valid=%v\n",
		res.Workload, res.Attempted, res.Failed, res.Correct, res.Valid)
	for _, p := range res.Problems {
		fmt.Fprintf(out, "%-17s CHECK FAILED: %s\n", res.Workload, p)
	}
	for _, w := range res.Warnings {
		fmt.Fprintf(out, "%-17s WARNING: %s\n", res.Workload, w)
	}
}

// contractLine is the one-object summary a single-workload run ends
// its standard output with.
func contractLine(res *result) ([]byte, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]mv, len(res.Rows))
	for _, rw := range res.Rows {
		ms[rw.Name] = mv{rw.Value, rw.Unit}
	}
	return json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted uint64        `json:"attempted"`
		Failed    uint64        `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.Correct, max(res.Attempted, 1), res.Failed, ms})
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workloadName = fs.String("workload", "", "run only this workload (default: all five)")
		seed         = fs.Uint64("seed", 17, "workload seed: the only input knob")
		seconds      = fs.Float64("seconds", 0, "measuring time per run (default: run_seconds of BENCHMARK.json)")
		trace        = fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
		smoke        = fs.Bool("smoke", false, "test-sized inputs (numbers are not comparable)")
		out          = fs.String("out", "", "also write the run as a JSON artifact to this file")
		spansOut     = fs.String("spans", "", "traced run: write the recorded spans as JSON lines to this file")
		specPath     = fs.String("spec", "", "path to BENCHMARK.json (default: ./ then ../)")
		workRoot     = fs.String("workdir", ".bench_work", "scratch directory root (archives are written here)")
		compare      = fs.Bool("compare", false, "compare two artifacts: -compare A.json B.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := loadSpec(*specPath)
	if err == nil {
		err = checkWorkloads(spec)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two artifact files")
			return 2
		}
		return runCompare(spec, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bench: unexpected arguments; -trace takes 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	selected := workloads
	if *workloadName != "" {
		w := findWorkload(*workloadName)
		if w == nil {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *workloadName)
			return 2
		}
		selected = []workload{*w}
	}

	if err := os.MkdirAll(*workRoot, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	workdir, err := os.MkdirTemp(*workRoot, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	defer func() {
		os.RemoveAll(workdir)
		os.Remove(*workRoot) // only succeeds once no other run is using it
	}()

	art := artifact{Schema: artifactSchema, Trace: *trace == 1, Seconds: *seconds, Smoke: *smoke}
	if *out != "" {
		art.Env = collectEnv(*seed)
	}
	var allSpans []span
	code := 0
	for i := range selected {
		c := &runCtx{seed: *seed, seconds: *seconds, trace: *trace == 1, smoke: *smoke, workdir: workdir}
		res, err := runWorkload(spec, &selected[i], c)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		printRows(stdout, res)
		if !res.Correct {
			code = 1
		}
		line, err := contractLine(res)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		fmt.Fprintf(stdout, "%s\n", line)
		art.Results = append(art.Results, res)
		if c.tr != nil {
			allSpans = append(allSpans, c.tr.spans...)
		}
	}
	if *out != "" {
		if err := art.write(*out); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
	}
	if *spansOut != "" {
		if err := writeSpans(*spansOut, allSpans); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
	}
	return code
}
