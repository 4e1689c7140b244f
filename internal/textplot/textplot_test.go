package textplot

import (
	"math"
	"strings"
	"testing"
)

func TestSparkline(t *testing.T) {
	s := Sparkline([]float64{0, 1, 2, 3, 4, 5, 6, 7})
	if s != "▁▂▃▄▅▆▇█" {
		t.Errorf("sparkline = %q", s)
	}
	if Sparkline(nil) != "" {
		t.Error("empty series should render empty")
	}
	// A constant series renders at the floor.
	flat := Sparkline([]float64{5, 5, 5})
	if flat != "▁▁▁" {
		t.Errorf("flat sparkline = %q", flat)
	}
}

func TestSparklineExtremes(t *testing.T) {
	s := []rune(Sparkline([]float64{0, 100}))
	if s[0] != '▁' || s[1] != '█' {
		t.Errorf("extremes = %q", string(s))
	}
}

func TestDownsample(t *testing.T) {
	in := make([]float64, 100)
	for i := range in {
		in[i] = float64(i)
	}
	out := Downsample(in, 10)
	if len(out) != 10 {
		t.Fatalf("len = %d", len(out))
	}
	// Bucket means rise monotonically.
	for i := 1; i < len(out); i++ {
		if out[i] <= out[i-1] {
			t.Errorf("bucket %d not increasing: %v", i, out)
		}
	}
	// First bucket is mean(0..9) = 4.5.
	if out[0] != 4.5 {
		t.Errorf("first bucket = %v", out[0])
	}
	// Short series pass through unchanged.
	short := []float64{1, 2}
	if got := Downsample(short, 10); &got[0] != &short[0] {
		t.Error("short series should pass through")
	}
}

func TestBar(t *testing.T) {
	if got := bar(0.5, 10); got != "█████·····" {
		t.Errorf("bar = %q", got)
	}
	if got := bar(-1, 4); got != "····" {
		t.Errorf("negative bar = %q", got)
	}
	if got := bar(2, 4); got != "████" {
		t.Errorf("overflow bar = %q", got)
	}
	if bar(0.5, 0) != "" {
		t.Error("zero-width bar should be empty")
	}
}

func TestBarChart(t *testing.T) {
	var b BarChart
	b.Add("memcached", 22.5)
	b.Add("NTP", 39.7)
	b.Add("DNS", 81.6)
	out := b.Render()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d", len(lines))
	}
	// DNS is the max: a full bar.
	if !strings.Contains(lines[2], strings.Repeat("█", 40)) {
		t.Errorf("max row not full: %q", lines[2])
	}
	if !strings.HasPrefix(lines[0], "memcached") {
		t.Errorf("label lost: %q", lines[0])
	}
	if !strings.Contains(lines[1], "39.7") {
		t.Errorf("value lost: %q", lines[1])
	}
}

func TestBarChartEmptyAndZero(t *testing.T) {
	var b BarChart
	if b.Render() != "" {
		t.Error("empty chart should render empty")
	}
	b.Add("zero", 0)
	if !strings.Contains(b.Render(), "····") {
		t.Error("zero row should render an empty bar")
	}
}

func TestTimeSeries(t *testing.T) {
	values := make([]float64, 122)
	for i := range values {
		values[i] = 100
		if i >= 80 {
			values[i] = 30
		}
	}
	out := TimeSeries{Values: values, EventIndex: 80, Width: 60}.Render()
	lines := strings.Split(out, "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d", len(lines))
	}
	if len([]rune(lines[0])) != 60 {
		t.Errorf("width = %d", len([]rune(lines[0])))
	}
	if !strings.Contains(lines[1], "^ takedown") {
		t.Errorf("marker line = %q", lines[1])
	}
	// Marker sits near 80/122 of the width.
	pos := strings.Index(lines[1], "^")
	want := 80 * 60 / 122
	if pos < want-2 || pos > want+2 {
		t.Errorf("marker at %d, want ~%d", pos, want)
	}
}

func TestTimeSeriesNoEvent(t *testing.T) {
	out := TimeSeries{Values: []float64{1, 2, 3}, EventIndex: -1}.Render()
	if strings.Contains(out, "takedown") {
		t.Error("marker rendered without an event")
	}
}

func TestCDF(t *testing.T) {
	cdf := CDF{
		At:    func(x float64) float64 { return x / 100 },
		Xs:    []float64{10, 50, 100},
		Label: "Gbps",
	}
	out := cdf.Render()
	if !strings.Contains(out, "10.0%") || !strings.Contains(out, "50.0%") || !strings.Contains(out, "100.0%") {
		t.Errorf("percentages missing:\n%s", out)
	}
	if !strings.Contains(out, "Gbps <= 10") {
		t.Errorf("labels missing:\n%s", out)
	}
	// NaN values render as zero instead of corrupting the bar.
	nan := CDF{At: func(float64) float64 { return math.NaN() }, Xs: []float64{1}, Label: "x"}
	if !strings.Contains(nan.Render(), "0.0%") {
		t.Error("NaN not normalized")
	}
}

func TestHistogram(t *testing.T) {
	h := Histogram{
		Centers:   []float64{76, 200, 488},
		Fractions: []float64{0.4, 0.001, 0.6},
	}
	out := h.Render()
	if strings.Contains(out, "200") {
		t.Error("sub-threshold bin should be hidden")
	}
	if !strings.Contains(out, "76 B") || !strings.Contains(out, "488 B") {
		t.Errorf("bins missing:\n%s", out)
	}
	if !strings.Contains(out, "60.0%") {
		t.Errorf("fractions missing:\n%s", out)
	}
}
