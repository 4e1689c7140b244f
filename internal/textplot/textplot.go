// Package textplot renders small terminal visualizations — sparklines,
// horizontal bar charts, time series panels, and CDF curves — used by
// the per-figure commands to show the reproduced plots directly in the
// terminal.
package textplot

import (
	"fmt"
	"math"
	"strings"
)

// sparkRunes are the eight block heights of a sparkline.
var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// Sparkline renders values as a single line of block characters scaled
// to the series' own min/max. An empty series renders as "".
func Sparkline(values []float64) string {
	if len(values) == 0 {
		return ""
	}
	min, max := values[0], values[0]
	for _, v := range values {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	var sb strings.Builder
	span := max - min
	for _, v := range values {
		idx := 0
		if span > 0 {
			idx = int((v - min) / span * float64(len(sparkRunes)-1))
		}
		if idx < 0 {
			idx = 0
		}
		if idx >= len(sparkRunes) {
			idx = len(sparkRunes) - 1
		}
		sb.WriteRune(sparkRunes[idx])
	}
	return sb.String()
}

// Downsample reduces values to at most width points by averaging
// consecutive buckets, preserving the series' shape for narrow
// terminals.
func Downsample(values []float64, width int) []float64 {
	if width <= 0 || len(values) <= width {
		return values
	}
	out := make([]float64, width)
	for i := 0; i < width; i++ {
		lo := i * len(values) / width
		hi := (i + 1) * len(values) / width
		if hi <= lo {
			hi = lo + 1
		}
		var sum float64
		for _, v := range values[lo:hi] {
			sum += v
		}
		out[i] = sum / float64(hi-lo)
	}
	return out
}

// bar renders one horizontal bar of the given fractional fill (0..1)
// over width cells.
func bar(frac float64, width int) string {
	if width <= 0 {
		return ""
	}
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	full := int(frac * float64(width))
	return strings.Repeat("█", full) + strings.Repeat("·", width-full)
}

// BarChart renders labeled horizontal bars scaled to the largest value.
type BarChart struct {
	rows []barRow
	// Width is the bar width in cells (default 40).
	Width int
}

type barRow struct {
	label string
	value float64
}

// Add appends one labeled value.
func (b *BarChart) Add(label string, value float64) {
	b.rows = append(b.rows, barRow{label, value})
}

// Render draws all rows, one per line.
func (b *BarChart) Render() string {
	width := b.Width
	if width <= 0 {
		width = 40
	}
	var max float64
	labelWidth := 0
	for _, r := range b.rows {
		if r.value > max {
			max = r.value
		}
		if len(r.label) > labelWidth {
			labelWidth = len(r.label)
		}
	}
	var sb strings.Builder
	for _, r := range b.rows {
		frac := 0.0
		if max > 0 {
			frac = r.value / max
		}
		fmt.Fprintf(&sb, "%-*s %s %.4g\n", labelWidth, r.label, bar(frac, width), r.value)
	}
	return sb.String()
}

// TimeSeries renders a daily series as a sparkline with an optional
// event marker (the takedown line in Figure 4 panels).
type TimeSeries struct {
	Values []float64
	// EventIndex draws a marker at this position (<0 disables).
	EventIndex int
	// Width bounds the rendered width (default 80).
	Width int
}

// Render draws the series over two lines: the sparkline and a marker
// line carrying the event position.
func (t TimeSeries) Render() string {
	width := t.Width
	if width <= 0 {
		width = 80
	}
	values := Downsample(t.Values, width)
	line := Sparkline(values)
	if t.EventIndex < 0 || t.EventIndex >= len(t.Values) || len(t.Values) == 0 {
		return line
	}
	pos := t.EventIndex * len(values) / len(t.Values)
	if pos >= len(values) {
		pos = len(values) - 1
	}
	marker := strings.Repeat(" ", pos) + "^ takedown"
	return line + "\n" + marker
}

// CDF renders an ECDF-style curve as fixed-quantile rows.
type CDF struct {
	// At evaluates P(X <= x).
	At func(float64) float64
	// Xs are the evaluation points.
	Xs []float64
	// Label names the x quantity.
	Label string
	// Width is the bar width (default 30).
	Width int
}

// Render draws one row per evaluation point.
func (c CDF) Render() string {
	width := c.Width
	if width <= 0 {
		width = 30
	}
	var sb strings.Builder
	for _, x := range c.Xs {
		p := c.At(x)
		if math.IsNaN(p) {
			p = 0
		}
		fmt.Fprintf(&sb, "%s <= %-8g %s %5.1f%%\n", c.Label, x, bar(p, width), p*100)
	}
	return sb.String()
}

// Histogram renders bin fractions with their centers.
type Histogram struct {
	// Centers and Fractions are parallel; bins below MinFraction are
	// skipped to keep output compact.
	Centers     []float64
	Fractions   []float64
	MinFraction float64
	Width       int
}

// Render draws one row per visible bin.
func (h Histogram) Render() string {
	width := h.Width
	if width <= 0 {
		width = 30
	}
	minFrac := h.MinFraction
	if minFrac == 0 {
		minFrac = 0.005
	}
	var max float64
	for _, f := range h.Fractions {
		if f > max {
			max = f
		}
	}
	var sb strings.Builder
	for i, f := range h.Fractions {
		if f < minFrac {
			continue
		}
		frac := 0.0
		if max > 0 {
			frac = f / max
		}
		fmt.Fprintf(&sb, "%6.0f B %s %5.1f%%\n", h.Centers[i], bar(frac, width), f*100)
	}
	return sb.String()
}
