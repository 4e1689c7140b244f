package main

import (
	"bytes"
	"encoding/json"
	"math"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{1, 50}, {19, 50}, {20, 50}, {40, 75}, {100, 90}, {200, 95}, {1000, 99}, {50000, 99},
	} {
		if got := tailPercentile(tc.n); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("tailPercentile(%d) = p%g, want p%g", tc.n, got, tc.want)
		}
	}
	prev := 0.0
	for n := 1; n < 5000; n++ {
		p := tailPercentile(n)
		if p != 50 && float64(n)*(100-p)/100 < 10-1e-9 {
			t.Fatalf("tailPercentile(%d) = p%g leaves fewer than ten samples beyond", n, p)
		}
		if p < prev || p > 99 {
			t.Fatalf("tailPercentile(%d) = p%g: not monotone within [50, 99] (previous p%g)", n, p, prev)
		}
		prev = p
	}
}

func TestSummarize(t *testing.T) {
	s := summarize([]float64{5, 1, 4, 2, 3})
	want := summary{N: 5, Median: 3, Q1: 2, Q3: 4, Min: 1, Max: 5}
	if s != want {
		t.Errorf("summarize = %+v, want %+v", s, want)
	}
	if one := summarize([]float64{7}); one.Median != 7 || one.Q1 != 7 || one.Q3 != 7 || one.N != 1 {
		t.Errorf("summarize of one sample = %+v", one)
	}
	if v, pct := tailOf([]float64{1, 2, 3}); pct != 50 || v != 2 {
		t.Errorf("tailOf three samples = %g at p%g, want the median", v, pct)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "child", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "child", Start: 20, End: 50}, // overlaps span 2
		{ID: 4, Parent: 1, Name: "child", Start: 60, End: 70},
		{ID: 5, Parent: 1, Name: "child", Start: 90, End: 120}, // runs past its parent
		{ID: 6, Parent: 4, Name: "leaf", Start: 62, End: 65, Count: 9},
	}
	got := selfTimes(spans)
	// Children cover [10,50) ∪ [60,70) ∪ [90,100) = 60 of the parent's 100.
	if p := got["parent"]; p.Total != 100 || p.Self != 40 || p.Spans != 1 {
		t.Errorf("parent totals = %+v, want total 100 self 40", p)
	}
	// Child self time: 20 + 30 + (10-3) + 30.
	if c := got["child"]; c.Total != 90 || c.Self != 87 || c.Spans != 4 {
		t.Errorf("child totals = %+v, want total 90 self 87 over 4 spans", c)
	}
	if l := got["leaf"]; l.Self != 3 || l.Count != 9 {
		t.Errorf("leaf totals = %+v", l)
	}
}

func TestTracerNilIsFree(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", 0)
	tr.end(id, 1)
	if tr.mark() != 0 {
		t.Error("nil tracer recorded something")
	}
	live := newTracer("w")
	a := live.begin("a", 0)
	b := live.begin("b", a)
	live.end(b, 2)
	live.end(a, 3)
	if len(live.spans) != 2 || live.spans[1].Parent != a || live.spans[0].Count != 3 || live.spans[0].End < live.spans[1].End {
		t.Errorf("spans = %+v", live.spans)
	}
}

func TestOpenLoopSchedule(t *testing.T) {
	if d := dueOffset(0, 24, 40000); d != 0 {
		t.Errorf("first datagram due at %v, want 0", d)
	}
	if d := dueOffset(1, 24, 40000); d != 600*time.Microsecond {
		t.Errorf("second datagram due at %v, want 600µs", d)
	}
	// The schedule is computed from the index, not accumulated, so it
	// cannot drift: 100 000 datagrams of 24 records at 40 000 rec/s is
	// exactly one minute.
	if d := dueOffset(100000, 24, 40000); d != time.Minute {
		t.Errorf("datagram 100000 due at %v, want 1m0s", d)
	}
	for k := 1; k < 1000; k++ {
		if dueOffset(k, 24, 40000) <= dueOffset(k-1, 24, 40000) {
			t.Fatalf("schedule not increasing at %d", k)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	tight := func(v float64) row {
		return row{Value: v, summary: summary{N: 9, Median: v, Q1: v * 0.99, Q3: v * 1.01, Min: v * 0.98, Max: v * 1.02}}
	}
	wide := func(v float64) row {
		return row{Value: v, summary: summary{N: 9, Median: v, Q1: v * 0.8, Q3: v * 1.2, Min: v * 0.6, Max: v * 1.4}}
	}
	for _, tc := range []struct {
		name   string
		a, b   row
		better string
		want   string
	}{
		{"lower-better, within bound", tight(100), tight(105), "lower", verdictUnchanged},
		{"lower-better, worse", tight(100), tight(120), "lower", verdictRegressed},
		{"lower-better, better", tight(100), tight(80), "lower", verdictImproved},
		{"higher-better, worse", tight(100), tight(80), "higher", verdictRegressed},
		{"higher-better, better", tight(100), tight(125), "higher", verdictImproved},
		{"noisy and overlapping", wide(100), wide(120), "lower", verdictUnresolved},
		{"noisy but disjoint", wide(100), wide(300), "lower", verdictRegressed},
		{"single readings", row{Value: 100, summary: summarize([]float64{100})}, row{Value: 130, summary: summarize([]float64{130})}, "lower", verdictRegressed},
	} {
		if got, _ := judge(tc.a, tc.b, tc.better, 0.10); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

// fakeArtifact holds one workload with every end-to-end metric at v.
func fakeArtifact(spec *benchSpec, v float64) *artifact {
	res := newResult("replay_analyze")
	res.Attempted = 1000
	res.Sizes["records"] = 1000
	for _, m := range spec.EndToEnd {
		res.add(m.Name, v*0.99, v, v*1.01)
	}
	return &artifact{Schema: artifactSchema, Seconds: 1, Env: envBlock{NProc: 2, GOMAXPROCS: 2, Seed: 17}, Results: []*result{res}}
}

func TestCompareExitCodesAndRefusals(t *testing.T) {
	spec, err := loadSpec("")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	write := func(name string, a *artifact) string {
		p := filepath.Join(dir, name)
		if err := a.write(p); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := write("a.json", fakeArtifact(spec, 100))
	same := write("b.json", fakeArtifact(spec, 101))
	var out, errOut bytes.Buffer
	if code := runCompare(spec, base, same, &out, &errOut); code != 0 {
		t.Errorf("equal artifacts: exit %d\n%s%s", code, out.String(), errOut.String())
	}
	if n := strings.Count(out.String(), verdictUnchanged); n != len(spec.EndToEnd) {
		t.Errorf("want one unchanged row per end-to-end metric, got %d:\n%s", n, out.String())
	}

	// Everything 50% larger: lower-is-better metrics regress.
	out.Reset()
	if code := runCompare(spec, base, write("c.json", fakeArtifact(spec, 150)), &out, &errOut); code != 1 {
		t.Errorf("regressed artifact: exit %d, want 1\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), verdictRegressed) || !strings.Contains(out.String(), verdictImproved) {
		t.Errorf("want both regressed and improved rows:\n%s", out.String())
	}

	for name, mutate := range map[string]func(*artifact){
		"nproc":      func(a *artifact) { a.Env.NProc = 8 },
		"gomaxprocs": func(a *artifact) { a.Env.GOMAXPROCS = 8 },
		"seed":       func(a *artifact) { a.Env.Seed = 18 },
		"sizes":      func(a *artifact) { a.Results[0].Sizes["records"] = 2000 },
		"seconds":    func(a *artifact) { a.Seconds = 5 },
		"traced":     func(a *artifact) { a.Trace = true },
	} {
		other := fakeArtifact(spec, 100)
		mutate(other)
		errOut.Reset()
		if code := runCompare(spec, base, write(name+".json", other), &out, &errOut); code != 2 {
			t.Errorf("artifacts differing in %s: exit %d, want refusal (2)", name, code)
		}
	}
}

func TestFinalizeCatchesDrift(t *testing.T) {
	spec, err := loadSpec("")
	if err != nil {
		t.Fatal(err)
	}
	complete := func() *result {
		r := newResult("w")
		for _, m := range spec.EndToEnd {
			r.add(m.Name, 1)
		}
		return r
	}
	if err := complete().finalize(spec, false); err != nil {
		t.Fatalf("complete result rejected: %v", err)
	}
	r := complete()
	r.add("made.up_metric", 1)
	if err := r.finalize(spec, false); err == nil {
		t.Error("undeclared metric accepted")
	}
	r = complete()
	r.add(spec.EndToEnd[0].Name, 2)
	if err := r.finalize(spec, false); err == nil {
		t.Error("metric emitted twice accepted")
	}
	r = complete()
	r.Rows = r.Rows[1:]
	if err := r.finalize(spec, false); err == nil {
		t.Error("missing end-to-end metric accepted")
	}
	r = complete()
	r.Rows[0].Value = math.NaN()
	if err := r.finalize(spec, false); err == nil {
		t.Error("NaN accepted")
	}
	// A per-layer metric in an untraced run is undeclared for that mode.
	r = complete()
	r.add(spec.PerLayer[0].Name, 1)
	if err := r.finalize(spec, false); err == nil {
		t.Error("per-layer metric accepted in an untraced run")
	}
	// Traced: layers the workload never enters are filled, unexercised.
	r = newResult("w")
	r.add(spec.PerLayer[0].Name, 3)
	if err := r.finalize(spec, true); err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != len(spec.PerLayer) || !r.Rows[0].Exercised || r.Rows[1].Exercised || r.Rows[1].Value != 0 {
		t.Errorf("traced fill wrong: %d rows, first %+v, second %+v", len(r.Rows), r.Rows[0], r.Rows[1])
	}
}

// TestSmokeEmitsExactlyTheDeclaredMetrics runs all five workloads at
// smoke size through the command line, untraced and traced, and holds
// the last line of output to BENCHMARK.json: every declared metric of
// the mode once, finite, well-named, nothing else — and every output
// check passing.
func TestSmokeEmitsExactlyTheDeclaredMetrics(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("the harness refuses to measure with GOMAXPROCS < 2")
	}
	spec, err := loadSpec("")
	if err != nil {
		t.Fatal(err)
	}
	if err := checkWorkloads(spec); err != nil {
		t.Fatal(err)
	}
	exercised := make(map[string]bool)
	for _, w := range spec.Workloads {
		for _, trace := range []string{"0", "1"} {
			var stdout, stderr bytes.Buffer
			artifactPath := filepath.Join(t.TempDir(), "run.json")
			code := realMain([]string{"--workload", w.Name, "--seed", "18", "--seconds", "0.5", "--trace", trace,
				"-smoke", "-workdir", t.TempDir(), "-out", artifactPath}, &stdout, &stderr)
			if code != 0 {
				t.Fatalf("%s trace=%s: exit %d\n%s\n%s", w.Name, trace, code, stderr.String(), stdout.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var last struct {
				Correct   *bool  `json:"correct"`
				Attempted uint64 `json:"attempted"`
				Failed    uint64 `json:"failed"`
				Metrics   map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				} `json:"metrics"`
			}
			dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&last); err != nil {
				t.Fatalf("%s trace=%s: last line is not the result object: %v\n%s", w.Name, trace, err, lines[len(lines)-1])
			}
			if last.Correct == nil || !*last.Correct || last.Attempted < 1 || last.Failed != 0 {
				t.Errorf("%s trace=%s: correct=%v attempted=%d failed=%d\n%s", w.Name, trace, last.Correct, last.Attempted, last.Failed, stdout.String())
			}
			decl := spec.declared(trace == "1")
			if len(last.Metrics) != len(decl) {
				t.Errorf("%s trace=%s: %d metrics emitted, %d declared", w.Name, trace, len(last.Metrics), len(decl))
			}
			for _, m := range decl {
				got, ok := last.Metrics[m.Name]
				switch {
				case !ok || got.Value == nil:
					t.Errorf("%s trace=%s: declared metric %s not emitted", w.Name, trace, m.Name)
					continue
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%s: %s has unit %q, declared %q", w.Name, trace, m.Name, got.Unit, m.Unit)
				case math.IsNaN(*got.Value) || math.IsInf(*got.Value, 0):
					t.Errorf("%s trace=%s: %s is not finite", w.Name, trace, m.Name)
				case trace == "0" && *got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %g, must never be 0", w.Name, m.Name, *got.Value)
				}
				if !metricName.MatchString(m.Name) {
					t.Errorf("metric name %q is malformed", m.Name)
				}
			}
			art, err := loadArtifact(artifactPath)
			if err != nil {
				t.Fatal(err)
			}
			if art.Env.NProc < 1 || art.Env.GoVersion == "" || art.Env.FlushPolicy == "" || len(art.Results) != 1 {
				t.Errorf("artifact environment block incomplete: %+v", art.Env)
			}
			for _, rw := range art.Results[0].Rows {
				if rw.Exercised {
					exercised[rw.Name] = true
				}
			}
		}
	}
	// A per-layer metric no workload exercises is a dead declaration.
	for _, m := range spec.PerLayer {
		if !exercised[m.Name] {
			t.Errorf("per-layer metric %s is declared but no workload measures it", m.Name)
		}
	}
}
