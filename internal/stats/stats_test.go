package stats

import (
	"math"
	"testing"

	"booterscope/internal/netutil"
)

func almost(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %v, want %v (±%v)", name, got, want, tol)
	}
}

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	almost(t, "mean", mean(xs), 5, 1e-12)
	almost(t, "variance", variance(xs), 32.0/7, 1e-12)
	if mean(nil) != 0 || variance([]float64{1}) != 0 {
		t.Error("degenerate inputs not zero")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	almost(t, "q0", quantile(xs, 0), 15, 0)
	almost(t, "q1", quantile(xs, 1), 50, 0)
	almost(t, "median", Median(xs), 35, 0)
	almost(t, "q0.25", quantile(xs, 0.25), 20, 1e-12)
	almost(t, "q0.75", quantile(xs, 0.75), 40, 1e-12)
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("empty quantile should be NaN")
	}
	// Input must not be mutated (Quantile sorts a copy).
	ys := []float64{3, 1, 2}
	quantile(ys, 0.5)
	if ys[0] != 3 || ys[1] != 1 || ys[2] != 2 {
		t.Error("Quantile mutated its input")
	}
}

func TestRegIncBetaKnownValues(t *testing.T) {
	// I_x(a,b) reference values.
	almost(t, "I_0.5(1,1)", regIncBeta(1, 1, 0.5), 0.5, 1e-10)
	almost(t, "I_0.25(2,2)", regIncBeta(2, 2, 0.25), 0.15625, 1e-10) // 3x^2-2x^3
	almost(t, "I_0.75(2,2)", regIncBeta(2, 2, 0.75), 0.84375, 1e-10)
	almost(t, "I_0(a,b)", regIncBeta(3, 4, 0), 0, 0)
	almost(t, "I_1(a,b)", regIncBeta(3, 4, 1), 1, 0)
	// Symmetry: I_x(a,b) = 1 - I_{1-x}(b,a).
	for _, x := range []float64{0.1, 0.3, 0.7, 0.9} {
		lhs := regIncBeta(2.5, 3.5, x)
		rhs := 1 - regIncBeta(3.5, 2.5, 1-x)
		almost(t, "symmetry", lhs, rhs, 1e-10)
	}
}

func TestStudentTCDFKnownValues(t *testing.T) {
	// Reference values from standard t tables.
	almost(t, "T(0, 5)", studentTCDF(0, 5), 0.5, 1e-12)
	// df=1 (Cauchy): CDF(1) = 0.75.
	almost(t, "T(1, 1)", studentTCDF(1, 1), 0.75, 1e-8)
	// df=10: t=1.812 is the 95th percentile.
	almost(t, "T(1.812, 10)", studentTCDF(1.812, 10), 0.95, 5e-4)
	// df=30: t=2.042 ~ 97.5th percentile... that's df=30 two-tailed 0.05.
	almost(t, "T(2.042, 30)", studentTCDF(2.042, 30), 0.975, 5e-4)
	// Symmetry.
	almost(t, "sym", studentTCDF(-1.5, 7), 1-studentTCDF(1.5, 7), 1e-10)
	// Large df approaches the normal distribution: CDF(1.96) ~ 0.975.
	almost(t, "normal limit", studentTCDF(1.96, 1e6), 0.975, 1e-3)
	if !math.IsNaN(studentTCDF(1, 0)) {
		t.Error("df=0 should be NaN")
	}
}

func TestWelchSignificantReduction(t *testing.T) {
	// Clearly separated samples: traffic halves after the takedown.
	r := netutil.NewRand(3)
	before := make([]float64, 30)
	after := make([]float64, 30)
	for i := range before {
		before[i] = r.Normal(1000, 50)
		after[i] = r.Normal(500, 80)
	}
	res, err := WelchOneTailed(before, after)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Significant(0.05) {
		t.Errorf("obvious reduction not significant: p=%v", res.P)
	}
	if res.T <= 0 {
		t.Errorf("T = %v, want positive", res.T)
	}
	almost(t, "reduction ratio", res.ReductionRatio(), 0.5, 0.1)
	if res.DF < 30 || res.DF > 58 {
		t.Errorf("Welch df = %v, want within (30, 58)", res.DF)
	}
}

func TestWelchNoChange(t *testing.T) {
	r := netutil.NewRand(4)
	before := make([]float64, 30)
	after := make([]float64, 30)
	for i := range before {
		before[i] = r.Normal(1000, 100)
		after[i] = r.Normal(1000, 100)
	}
	res, err := WelchOneTailed(before, after)
	if err != nil {
		t.Fatal(err)
	}
	if res.Significant(0.05) {
		t.Errorf("no-change samples flagged significant: p=%v", res.P)
	}
}

func TestWelchIncrease(t *testing.T) {
	// One-tailed test for reduction must NOT fire when traffic grows.
	r := netutil.NewRand(5)
	before := make([]float64, 30)
	after := make([]float64, 30)
	for i := range before {
		before[i] = r.Normal(500, 50)
		after[i] = r.Normal(1000, 50)
	}
	res, err := WelchOneTailed(before, after)
	if err != nil {
		t.Fatal(err)
	}
	if res.Significant(0.05) {
		t.Errorf("increase flagged as significant reduction: p=%v", res.P)
	}
	if res.P < 0.95 {
		t.Errorf("p = %v, want near 1 for strong increase", res.P)
	}
}

func TestWelchAgainstReference(t *testing.T) {
	// Cross-checked with scipy.stats.ttest_ind(equal_var=False).
	a := []float64{27.5, 21.0, 19.0, 23.6, 17.0, 17.9, 16.9, 20.1, 21.9, 22.6, 23.1, 19.6, 19.0, 21.7, 21.4}
	b := []float64{27.1, 22.0, 20.8, 23.4, 23.4, 23.5, 25.8, 22.0, 24.8, 20.2, 21.9, 22.1, 22.9, 30.0, 23.9}
	res, err := WelchOneTailed(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// Reference values verified independently by numerically integrating
	// the Student-t density: t = -2.83526, df = 27.7136,
	// P(T >= t) = 0.99577363.
	almost(t, "T", res.T, -2.8352638, 1e-6)
	almost(t, "DF", res.DF, 27.713626, 1e-5)
	almost(t, "P one-tailed", res.P, 0.99577363, 1e-7)
}

func TestWelchDegenerate(t *testing.T) {
	if _, err := WelchOneTailed([]float64{1}, []float64{1, 2}); err != errInsufficientData {
		t.Errorf("err = %v", err)
	}
	res, err := WelchOneTailed([]float64{5, 5, 5}, []float64{2, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Significant(0.05) || res.P != 0 {
		t.Errorf("constant drop: p=%v", res.P)
	}
	same, _ := WelchOneTailed([]float64{5, 5}, []float64{5, 5})
	if same.Significant(0.05) {
		t.Error("identical constants flagged significant")
	}
}

func TestReductionRatioEdgeCases(t *testing.T) {
	r := WelchResult{MeanBefore: 0, MeanAfter: 0}
	if r.ReductionRatio() != 1 {
		t.Error("0/0 ratio should be 1")
	}
	r = WelchResult{MeanBefore: 0, MeanAfter: 5}
	if !math.IsInf(r.ReductionRatio(), 1) {
		t.Error("x/0 ratio should be +Inf")
	}
	r = WelchResult{MeanBefore: 100, MeanAfter: 22.5}
	almost(t, "ratio", r.ReductionRatio(), 0.225, 1e-12)
}

func TestECDF(t *testing.T) {
	e := NewECDF([]float64{1, 2, 2, 3, 10})
	almost(t, "At(0)", e.At(0), 0, 0)
	almost(t, "At(1)", e.At(1), 0.2, 1e-12)
	almost(t, "At(2)", e.At(2), 0.6, 1e-12)
	almost(t, "At(5)", e.At(5), 0.8, 1e-12)
	almost(t, "At(10)", e.At(10), 1, 0)
	if e.Len() != 5 {
		t.Errorf("Len = %d", e.Len())
	}
	if !math.IsNaN(NewECDF(nil).At(1)) {
		t.Error("empty ECDF should be NaN")
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 100, 10)
	for i := 0; i < 50; i++ {
		h.Add(5) // bin 0
	}
	for i := 0; i < 50; i++ {
		h.Add(95) // bin 9
	}
	h.Add(-1)  // underflow
	h.Add(100) // overflow (max is exclusive)
	if h.Total() != 102 {
		t.Errorf("total = %d", h.Total())
	}
	if h.Underflow != 1 || h.Overflow != 1 {
		t.Errorf("under/over = %d/%d", h.Underflow, h.Overflow)
	}
	pdf := h.PDF()
	almost(t, "pdf[0]", pdf[0], 0.5, 1e-12)
	almost(t, "pdf[9]", pdf[9], 0.5, 1e-12)
	almost(t, "center0", h.BinCenter(0), 5, 1e-12)
	almost(t, "below50", h.FractionBelow(50), 0.5, 1e-12)
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	for _, p := range h.PDF() {
		if p != 0 {
			t.Error("empty histogram PDF not zero")
		}
	}
	if h.FractionBelow(5) != 0 {
		t.Error("empty FractionBelow not zero")
	}
}

func BenchmarkWelch(b *testing.B) {
	r := netutil.NewRand(1)
	before := make([]float64, 40)
	after := make([]float64, 40)
	for i := range before {
		before[i] = r.Normal(1000, 100)
		after[i] = r.Normal(800, 100)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := WelchOneTailed(before, after); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStudentTCDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = studentTCDF(1.7, 57.3)
	}
}
