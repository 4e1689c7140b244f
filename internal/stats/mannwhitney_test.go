package stats

import (
	"math"
	"testing"

	"booterscope/internal/netutil"
)

func TestMannWhitneyDetectsShift(t *testing.T) {
	r := netutil.NewRand(9)
	before := make([]float64, 40)
	after := make([]float64, 40)
	for i := range before {
		before[i] = r.Normal(1000, 100)
		after[i] = r.Normal(600, 100)
	}
	res, err := MannWhitneyOneTailed(before, after)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Significant(0.05) {
		t.Errorf("clear shift not significant: p=%v", res.P)
	}
	if res.Z <= 0 {
		t.Errorf("Z = %v, want positive for a drop", res.Z)
	}
}

func TestMannWhitneyNoShift(t *testing.T) {
	r := netutil.NewRand(10)
	before := make([]float64, 40)
	after := make([]float64, 40)
	for i := range before {
		before[i] = r.Normal(1000, 100)
		after[i] = r.Normal(1000, 100)
	}
	res, err := MannWhitneyOneTailed(before, after)
	if err != nil {
		t.Fatal(err)
	}
	if res.Significant(0.05) {
		t.Errorf("flat samples flagged: p=%v", res.P)
	}
}

func TestMannWhitneyIncreaseNotFlagged(t *testing.T) {
	r := netutil.NewRand(11)
	before := make([]float64, 40)
	after := make([]float64, 40)
	for i := range before {
		before[i] = r.Normal(600, 50)
		after[i] = r.Normal(1000, 50)
	}
	res, err := MannWhitneyOneTailed(before, after)
	if err != nil {
		t.Fatal(err)
	}
	if res.Significant(0.05) {
		t.Errorf("increase flagged as reduction: p=%v", res.P)
	}
	if res.P < 0.95 {
		t.Errorf("p = %v, want near 1", res.P)
	}
}

func TestMannWhitneyHeavyTailRobustness(t *testing.T) {
	// The motivation for the ablation: a single extreme outlier in the
	// "after" window drags the mean up and can mask a real median drop
	// from the t-test; the rank test ignores magnitude.
	r := netutil.NewRand(12)
	before := make([]float64, 30)
	after := make([]float64, 30)
	for i := range before {
		before[i] = r.Normal(1000, 50)
		after[i] = r.Normal(500, 50)
	}
	after[0] = 1e9 // one monster day

	mw, err := MannWhitneyOneTailed(before, after)
	if err != nil {
		t.Fatal(err)
	}
	if !mw.Significant(0.05) {
		t.Errorf("rank test lost the drop to an outlier: p=%v", mw.P)
	}
	welch, err := WelchOneTailed(before, after)
	if err != nil {
		t.Fatal(err)
	}
	if welch.Significant(0.05) {
		t.Errorf("expected the t-test to be masked by the outlier (p=%v); the ablation premise fails", welch.P)
	}
}

func TestMannWhitneyKnownSmallSample(t *testing.T) {
	// Hand-computed: before = {5,6,7}, after = {1,2,3}; all before ranks
	// above all after ranks. R1 = 4+5+6 = 15, U1 = 15-6 = 9 (max), mean
	// = 4.5, var = 3*3*7/12 = 5.25.
	res, err := MannWhitneyOneTailed([]float64{5, 6, 7}, []float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.U != 9 {
		t.Errorf("U = %v, want 9", res.U)
	}
	wantZ := (9 - 4.5 - 0.5) / math.Sqrt(5.25)
	if math.Abs(res.Z-wantZ) > 1e-12 {
		t.Errorf("Z = %v, want %v", res.Z, wantZ)
	}
}

func TestMannWhitneyTies(t *testing.T) {
	// Heavy ties must not panic and must keep a sane p-value.
	before := []float64{2, 2, 2, 2, 3, 3}
	after := []float64{1, 1, 2, 2, 2, 1}
	res, err := MannWhitneyOneTailed(before, after)
	if err != nil {
		t.Fatal(err)
	}
	if res.P <= 0 || res.P >= 1 {
		t.Errorf("p = %v", res.P)
	}
	// Identical constant samples: no evidence.
	same, err := MannWhitneyOneTailed([]float64{5, 5, 5}, []float64{5, 5, 5})
	if err != nil {
		t.Fatal(err)
	}
	if same.P != 1 {
		t.Errorf("identical samples p = %v, want 1", same.P)
	}
}

func TestMannWhitneyErrors(t *testing.T) {
	if _, err := MannWhitneyOneTailed([]float64{1}, []float64{1, 2}); err != errInsufficientData {
		t.Errorf("err = %v", err)
	}
}

func TestNormCDF(t *testing.T) {
	cases := map[float64]float64{0: 0.5, 1.96: 0.975, -1.96: 0.025, 3: 0.99865}
	for z, want := range cases {
		if got := normCDF(z); math.Abs(got-want) > 1e-4 {
			t.Errorf("normCDF(%v) = %v, want %v", z, got, want)
		}
	}
}

func BenchmarkMannWhitney(b *testing.B) {
	r := netutil.NewRand(1)
	before := make([]float64, 40)
	after := make([]float64, 40)
	for i := range before {
		before[i] = r.Normal(1000, 100)
		after[i] = r.Normal(700, 100)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := MannWhitneyOneTailed(before, after); err != nil {
			b.Fatal(err)
		}
	}
}
