package main

import (
	"fmt"
	"io"
	"math"
	"reflect"
)

// Verdicts of one workload × end-to-end metric comparison.
const (
	verdictImproved   = "improved"
	verdictUnchanged  = "unchanged"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// relSpread is a row's interquartile distance as a share of its value.
func relSpread(r row) float64 {
	if r.Value == 0 {
		return 0
	}
	return math.Abs((r.Q3 - r.Q1) / r.Value)
}

// judge compares candidate b against baseline a for a metric whose
// better direction and regression bound are given. worse is b's change
// in the bad direction as a share of a. Moving past the bound either
// way is a verdict — unless the samples' own spread is wider than the
// bound and the two sample ranges overlap, in which case the runs
// cannot tell the two apart and the honest answer is unresolved.
func judge(a, b row, better string, bound float64) (verdict string, worse float64) {
	if a.Value != 0 {
		worse = (b.Value - a.Value) / math.Abs(a.Value)
	}
	if better == "higher" {
		worse = -worse
	}
	if math.Abs(worse) <= bound {
		return verdictUnchanged, worse
	}
	noisy := max(relSpread(a), relSpread(b)) > bound
	overlap := a.Min <= b.Max && b.Min <= a.Max
	switch {
	case noisy && overlap:
		return verdictUnresolved, worse
	case worse > 0:
		return verdictRegressed, worse
	default:
		return verdictImproved, worse
	}
}

// comparable refuses artifact pairs whose numbers were not produced
// under the same conditions.
func comparable(a, b *artifact) error {
	switch {
	case a.Trace || b.Trace:
		return fmt.Errorf("traced artifacts hold per-layer metrics; compare untraced runs")
	case a.Env.NProc != b.Env.NProc:
		return fmt.Errorf("nproc differs: %d vs %d", a.Env.NProc, b.Env.NProc)
	case a.Env.GOMAXPROCS != b.Env.GOMAXPROCS:
		return fmt.Errorf("GOMAXPROCS differs: %d vs %d", a.Env.GOMAXPROCS, b.Env.GOMAXPROCS)
	case a.Env.Seed != b.Env.Seed:
		return fmt.Errorf("seed differs: %d vs %d", a.Env.Seed, b.Env.Seed)
	case a.Seconds != b.Seconds || a.Smoke != b.Smoke:
		return fmt.Errorf("run length differs: %gs (smoke=%v) vs %gs (smoke=%v)", a.Seconds, a.Smoke, b.Seconds, b.Smoke)
	}
	for _, ra := range a.Results {
		rb := b.result(ra.Workload)
		if rb == nil {
			return fmt.Errorf("workload %s is missing from the second artifact", ra.Workload)
		}
		if !reflect.DeepEqual(ra.Sizes, rb.Sizes) {
			return fmt.Errorf("workload %s: input sizes differ: %v vs %v", ra.Workload, ra.Sizes, rb.Sizes)
		}
	}
	if len(a.Results) != len(b.Results) {
		return fmt.Errorf("the artifacts hold different workload sets")
	}
	return nil
}

func findRow(r *result, name string) (row, bool) {
	for _, rw := range r.Rows {
		if rw.Name == name {
			return rw, true
		}
	}
	return row{}, false
}

// runCompare prints one line per workload × end-to-end metric and
// returns 1 if any regressed (or the candidate's outputs were wrong),
// 2 if the artifacts cannot be compared.
func runCompare(spec *benchSpec, pathA, pathB string, stdout, stderr io.Writer) int {
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench: -compare:", err)
		return 2
	}
	a, err := loadArtifact(pathA)
	if err != nil {
		return fail(err)
	}
	b, err := loadArtifact(pathB)
	if err != nil {
		return fail(err)
	}
	if err := comparable(a, b); err != nil {
		return fail(err)
	}
	return printComparison(spec, a, b, stdout)
}

func printComparison(spec *benchSpec, a, b *artifact, out io.Writer) int {
	code := 0
	fmt.Fprintf(out, "%-17s %-16s %-7s %14s %25s %14s %25s %9s %7s  %s\n",
		"workload", "metric", "better", "A", "A [q1, q3]", "B", "B [q1, q3]", "worse by", "bound", "verdict")
	for _, ra := range a.Results {
		rb := b.result(ra.Workload)
		if !rb.Correct {
			fmt.Fprintf(out, "%-17s outputs INCORRECT in the second artifact: %v\n", ra.Workload, rb.Problems)
			code = 1
		}
		if rb.Failed*ra.Attempted > ra.Failed*rb.Attempted {
			fmt.Fprintf(out, "%-17s failed share grew: %d/%d -> %d/%d records\n",
				ra.Workload, ra.Failed, ra.Attempted, rb.Failed, rb.Attempted)
			code = 1
		}
		for _, m := range spec.EndToEnd {
			rowA, okA := findRow(ra, m.Name)
			rowB, okB := findRow(rb, m.Name)
			if !okA || !okB {
				fmt.Fprintf(out, "%-17s %-16s missing from an artifact\n", ra.Workload, m.Name)
				code = 1
				continue
			}
			verdict, worse := judge(rowA, rowB, m.Better, m.Bound)
			if verdict == verdictRegressed {
				code = 1
			}
			fmt.Fprintf(out, "%-17s %-16s %-7s %14.6g %25s %14.6g %25s %+8.2f%% %6.1f%%  %s\n",
				ra.Workload, m.Name, m.Better,
				rowA.Value, fmt.Sprintf("[%.5g, %.5g]", rowA.Q1, rowA.Q3),
				rowB.Value, fmt.Sprintf("[%.5g, %.5g]", rowB.Q1, rowB.Q3),
				100*worse, 100*m.Bound, verdict)
		}
	}
	return code
}
