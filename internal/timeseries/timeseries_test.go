package timeseries

import (
	"strings"
	"testing"
	"time"

	"booterscope/internal/netutil"
)

var takedown = time.Date(2018, 12, 19, 0, 0, 0, 0, time.UTC)

func TestSeriesBinning(t *testing.T) {
	s := NewDaily()
	s.Add(time.Date(2018, 12, 1, 3, 0, 0, 0, time.UTC), 10)
	s.Add(time.Date(2018, 12, 1, 23, 59, 0, 0, time.UTC), 5)
	s.Add(time.Date(2018, 12, 2, 0, 0, 1, 0, time.UTC), 7)
	if got := s.At(time.Date(2018, 12, 1, 12, 0, 0, 0, time.UTC)); got != 15 {
		t.Errorf("day 1 = %v", got)
	}
	if got := s.At(time.Date(2018, 12, 2, 5, 0, 0, 0, time.UTC)); got != 7 {
		t.Errorf("day 2 = %v", got)
	}
	if s.Len() != 2 {
		t.Errorf("len = %d", s.Len())
	}
	if s.Sum() != 22 {
		t.Errorf("sum = %v", s.Sum())
	}
	if s.binSize != 24*time.Hour {
		t.Errorf("bin size = %v", s.binSize)
	}
}

func TestSeriesTimezoneNormalization(t *testing.T) {
	s := NewDaily()
	est := time.FixedZone("EST", -5*3600)
	// 23:00 EST on Dec 1 is 04:00 UTC on Dec 2.
	s.Add(time.Date(2018, 12, 1, 23, 0, 0, 0, est), 1)
	if got := s.At(time.Date(2018, 12, 2, 0, 0, 0, 0, time.UTC)); got != 1 {
		t.Errorf("UTC day 2 = %v", got)
	}
}

func TestPointsFillGaps(t *testing.T) {
	s := NewDaily()
	s.Add(takedown, 1)
	s.Add(takedown.AddDate(0, 0, 3), 4)
	pts := s.Points()
	if len(pts) != 4 {
		t.Fatalf("points = %d, want 4 (gap days included)", len(pts))
	}
	if pts[1].Value != 0 || pts[2].Value != 0 {
		t.Errorf("gap days = %v, %v", pts[1].Value, pts[2].Value)
	}
	if !pts[0].Time.Equal(takedown) || pts[3].Value != 4 {
		t.Errorf("endpoints wrong: %+v", pts)
	}
	if NewDaily().Points() != nil {
		t.Error("empty series should return nil points")
	}
}

func TestWindow(t *testing.T) {
	s := NewDaily()
	for d := 0; d < 10; d++ {
		s.Add(takedown.AddDate(0, 0, d), float64(d))
	}
	w := s.window(takedown.AddDate(0, 0, 2), takedown.AddDate(0, 0, 5))
	if len(w) != 3 || w[0] != 2 || w[2] != 4 {
		t.Errorf("window = %v", w)
	}
	// Windows include empty bins as zero.
	w = s.window(takedown.AddDate(0, 0, -2), takedown)
	if len(w) != 2 || w[0] != 0 || w[1] != 0 {
		t.Errorf("empty-prefix window = %v", w)
	}
}

func TestHourlySeries(t *testing.T) {
	s := newSeries(time.Hour)
	base := time.Date(2018, 12, 19, 14, 0, 0, 0, time.UTC)
	s.Add(base.Add(10*time.Minute), 3)
	s.Add(base.Add(50*time.Minute), 4)
	s.Add(base.Add(70*time.Minute), 5)
	if got := s.At(base); got != 7 {
		t.Errorf("hour bin = %v", got)
	}
	if got := s.At(base.Add(time.Hour)); got != 5 {
		t.Errorf("next hour = %v", got)
	}
}

// buildDrop builds a 122-day daily series with a level shift at the
// takedown: mean beforeLevel before, afterLevel after, noise sigma.
func buildDrop(beforeLevel, afterLevel, sigma float64, seed uint64) *Series {
	r := netutil.NewRand(seed)
	s := NewDaily()
	start := takedown.AddDate(0, 0, -80)
	for d := 0; d < 122; d++ {
		day := start.AddDate(0, 0, d)
		level := beforeLevel
		if !day.Before(takedown) {
			level = afterLevel
		}
		v := r.Normal(level, sigma)
		if v < 0 {
			v = 0
		}
		s.Add(day, v)
	}
	return s
}

func TestAnalyzeEventDetectsDrop(t *testing.T) {
	s := buildDrop(1e6, 225e3, 5e4, 1)
	a, err := AnalyzeEvent(s, takedown, 30)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Significant {
		t.Errorf("drop not significant: p = %v", a.Welch.P)
	}
	if a.Reduction < 0.15 || a.Reduction > 0.3 {
		t.Errorf("reduction = %v, want ~0.225", a.Reduction)
	}
	if a.WindowDays != 30 {
		t.Errorf("window = %d", a.WindowDays)
	}
}

func TestAnalyzeEventNoDrop(t *testing.T) {
	s := buildDrop(1e6, 1e6, 5e4, 2)
	for _, days := range []int{30, 40} {
		a, err := AnalyzeEvent(s, takedown, days)
		if err != nil {
			t.Fatal(err)
		}
		if a.Significant {
			t.Errorf("wt%d flagged flat series: p = %v", days, a.Welch.P)
		}
	}
}

func TestAnalyzeEventWindowPlacement(t *testing.T) {
	// Value 10 for exactly 30 days before, 2 for 30 days starting at the
	// event. Means must be exact, proving the event day lands in "after".
	s := NewDaily()
	for d := -30; d < 0; d++ {
		s.Add(takedown.AddDate(0, 0, d), 10)
	}
	for d := 0; d < 30; d++ {
		s.Add(takedown.AddDate(0, 0, d), 2)
	}
	a, err := AnalyzeEvent(s, takedown, 30)
	if err != nil {
		t.Fatal(err)
	}
	if a.Welch.MeanBefore != 10 || a.Welch.MeanAfter != 2 {
		t.Errorf("means = %v / %v", a.Welch.MeanBefore, a.Welch.MeanAfter)
	}
	if a.Reduction != 0.2 {
		t.Errorf("reduction = %v", a.Reduction)
	}
}

func TestAnalyzeEventErrors(t *testing.T) {
	s := NewDaily()
	if _, err := AnalyzeEvent(s, takedown, 0); err != errEmptyWindow {
		t.Errorf("zero window err = %v", err)
	}
	if _, err := AnalyzeEvent(s, takedown, 1); err != errEmptyWindow {
		t.Errorf("1-day window err = %v", err)
	}
}

func TestAnalyzeTakedown(t *testing.T) {
	s := buildDrop(1e6, 4e5, 4e4, 3)
	m, err := AnalyzeTakedown(s, takedown, "packets NTP dst port")
	if err != nil {
		t.Fatal(err)
	}
	if !m.WT30.Significant || !m.WT40.Significant {
		t.Error("both windows should be significant")
	}
	if m.WT30.WindowDays != 30 || m.WT40.WindowDays != 40 {
		t.Errorf("window days = %d/%d", m.WT30.WindowDays, m.WT40.WindowDays)
	}
	str := m.String()
	if !strings.Contains(str, "packets NTP dst port") || !strings.Contains(str, "wt30 sign. (p=0.05): true") {
		t.Errorf("String() = %q", str)
	}
}

func TestEventAnalysisString(t *testing.T) {
	s := buildDrop(100, 25, 1, 4)
	a, err := AnalyzeEvent(s, takedown, 40)
	if err != nil {
		t.Fatal(err)
	}
	str := a.String()
	if !strings.Contains(str, "wt40") || !strings.Contains(str, "red40") {
		t.Errorf("String() = %q", str)
	}
}

func BenchmarkAnalyzeTakedown(b *testing.B) {
	s := buildDrop(1e6, 4e5, 4e4, 5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := AnalyzeTakedown(s, takedown, "bench"); err != nil {
			b.Fatal(err)
		}
	}
}
