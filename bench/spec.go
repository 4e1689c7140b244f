package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"regexp"
)

// benchSpec is BENCHMARK.json: the one declaration of what this
// harness measures. The harness reads it at start-up instead of
// carrying a second copy, so a metric the code emits but the file does
// not declare (or the reverse) fails the run that first does it.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// metricSpec declares one metric. Bound is set on end-to-end metrics
// only: the share of the baseline's median by which the metric may
// worsen before -compare says regressed.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// loadSpec reads BENCHMARK.json from path, or — with path empty — from
// the working directory and then its parent (go test runs in bench/).
func loadSpec(path string) (*benchSpec, error) {
	candidates := []string{path}
	if path == "" {
		candidates = []string{"BENCHMARK.json", "../BENCHMARK.json"}
	}
	var data []byte
	var err error
	for _, p := range candidates {
		if data, err = os.ReadFile(p); err == nil {
			break
		}
	}
	if err != nil {
		return nil, fmt.Errorf("reading benchmark spec: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("parsing benchmark spec: %w", err)
	}
	seen := make(map[string]bool)
	for _, m := range append(append([]metricSpec(nil), s.EndToEnd...), s.PerLayer...) {
		if !metricName.MatchString(m.Name) {
			return nil, fmt.Errorf("benchmark spec: metric name %q is malformed", m.Name)
		}
		if seen[m.Name] {
			return nil, fmt.Errorf("benchmark spec: metric %q declared twice", m.Name)
		}
		seen[m.Name] = true
		if m.Better != "higher" && m.Better != "lower" {
			return nil, fmt.Errorf("benchmark spec: metric %q: better is %q", m.Name, m.Better)
		}
	}
	return &s, nil
}

// declared returns the metric set one run mode must emit: the
// end-to-end metrics untraced, the per-layer metrics traced.
func (s *benchSpec) declared(trace bool) []metricSpec {
	if trace {
		return s.PerLayer
	}
	return s.EndToEnd
}

// row is one metric of one workload run. Value is what the run
// reports; the summary describes the per-pass samples behind it (N ==
// 1 when the run yields a single reading).
type row struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	summary
	// Exercised is false on a per-layer metric of a layer this
	// workload never enters; its value is then 0 by convention.
	Exercised bool `json:"exercised"`
	// Note qualifies the reading (which tail percentile was supported,
	// for instance).
	Note string `json:"note,omitempty"`
}

// result is everything one workload run produced.
type result struct {
	Workload string `json:"workload"`
	// Correct reports every output check passed; Problems lists the
	// ones that did not.
	Correct  bool     `json:"correct"`
	Problems []string `json:"problems,omitempty"`
	// Valid is false when the load generator, not the system, limited
	// the run (it ran late, or never had to wait); Warnings say how.
	Valid    bool     `json:"valid"`
	Warnings []string `json:"warnings,omitempty"`
	// Attempted and Failed count records offered to the path and
	// records it did not carry to the end.
	Attempted uint64 `json:"attempted"`
	Failed    uint64 `json:"failed"`
	// Sizes records the generated input (records, scale, days, ...).
	Sizes map[string]float64 `json:"sizes"`
	Rows  []row              `json:"rows"`
}

func newResult(workload string) *result {
	return &result{Workload: workload, Correct: true, Valid: true, Sizes: make(map[string]float64)}
}

// add records one metric from its per-pass samples; the reported value
// is their median.
func (r *result) add(name string, samples ...float64) {
	s := summarize(samples)
	r.Rows = append(r.Rows, row{Name: name, Value: s.Median, summary: s, Exercised: true})
}

// addNoted is add with a qualifying note.
func (r *result) addNoted(name, note string, samples ...float64) {
	r.add(name, samples...)
	r.Rows[len(r.Rows)-1].Note = note
}

// failf records a failed output check.
func (r *result) failf(format string, args ...any) {
	r.Correct = false
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// warnf marks the run as limited by the harness rather than the system.
func (r *result) warnf(format string, args ...any) {
	r.Valid = false
	r.Warnings = append(r.Warnings, fmt.Sprintf(format, args...))
}

// endToEnd emits the five end-to-end rows, the one place that says what
// they are made of: per-build set-up seconds, per-pass record rates,
// bytes per record, per-pass median latencies, and — for the tail — the
// run's pooled latency samples (of what, for the row's note), read at
// the highest percentile they support.
func (r *result) endToEnd(setupSecs, rates []float64, bytesPerRec float64, p50s, pooledMs []float64, of string) {
	tail, pct := tailOf(pooledMs)
	r.add("setup_s", setupSecs...)
	r.add("rec_per_s", rates...)
	r.add("bytes_per_rec", bytesPerRec)
	r.add("latency_ms_p50", p50s...)
	r.addNoted("latency_ms_tail", fmt.Sprintf("p%.3g of %d %s", pct, len(pooledMs), of), tail)
}

// finalize checks the rows against the declared set for this run mode
// — nothing undeclared, nothing twice, nothing non-finite — attaches
// the units, and orders rows as declared. An untraced run must emit
// every end-to-end metric. A traced run fills the per-layer metrics of
// layers the workload never enters with unexercised zero rows.
func (r *result) finalize(spec *benchSpec, trace bool) error {
	decl := spec.declared(trace)
	byName := make(map[string]*row, len(r.Rows))
	for i := range r.Rows {
		rw := &r.Rows[i]
		if byName[rw.Name] != nil {
			return fmt.Errorf("%s: metric %q emitted twice", r.Workload, rw.Name)
		}
		if math.IsNaN(rw.Value) || math.IsInf(rw.Value, 0) {
			return fmt.Errorf("%s: metric %q is not finite", r.Workload, rw.Name)
		}
		byName[rw.Name] = rw
	}
	ordered := make([]row, 0, len(decl))
	for _, m := range decl {
		rw := byName[m.Name]
		switch {
		case rw != nil:
			delete(byName, m.Name)
		case trace:
			rw = &row{Name: m.Name}
		default:
			return fmt.Errorf("%s: end-to-end metric %q was not emitted", r.Workload, m.Name)
		}
		rw.Unit = m.Unit
		ordered = append(ordered, *rw)
	}
	for name := range byName {
		return fmt.Errorf("%s: metric %q is not declared in BENCHMARK.json for this mode", r.Workload, name)
	}
	r.Rows = ordered
	return nil
}
