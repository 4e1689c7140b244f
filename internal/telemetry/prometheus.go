package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
)

// writePrometheus renders every registered metric in the Prometheus
// text exposition format (version 0.0.4), metrics sorted by name.
func (r *Registry) writePrometheus(w io.Writer) error {
	for _, name := range r.names() {
		e := r.lookup(name)
		if e == nil {
			continue
		}
		var err error
		switch {
		case e.counter != nil:
			err = writeScalar(w, e.name, e.help, "counter", float64(e.counter.Value()))
		case e.gauge != nil:
			err = writeScalar(w, e.name, e.help, "gauge", e.gauge.Value())
		case e.gaugeFunc != nil:
			err = writeScalar(w, e.name, e.help, "gauge", e.gaugeFunc())
		case e.hist != nil:
			err = writeHistogram(w, e.name, e.help, e.hist.Snapshot())
		case e.vec != nil:
			err = writeVec(w, e.name, e.help, e.vec.Snapshot())
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func writeHeader(w io.Writer, name, help, typ string) error {
	if help != "" {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n", name, escapeHelp(help)); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, typ)
	return err
}

func writeScalar(w io.Writer, name, help, typ string, v float64) error {
	if err := writeHeader(w, name, help, typ); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s %s\n", name, formatValue(v))
	return err
}

func writeHistogram(w io.Writer, name, help string, s HistogramSnapshot) error {
	if err := writeHeader(w, name, help, "histogram"); err != nil {
		return err
	}
	var cum uint64
	for _, b := range s.Buckets {
		cum += b.Count
		le := "+Inf"
		if !math.IsInf(b.UpperBound, 1) {
			le = formatValue(b.UpperBound)
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, le, cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_sum %s\n", name, formatValue(s.Sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count %d\n", name, s.Count)
	return err
}

func writeVec(w io.Writer, name, help string, s vecSnapshot) error {
	if err := writeHeader(w, name, help, "counter"); err != nil {
		return err
	}
	for _, v := range s.Values {
		pairs := make([]string, len(s.Labels))
		for i, l := range s.Labels {
			pairs[i] = fmt.Sprintf("%s=%q", l, escapeLabel(v.LabelValues[i]))
		}
		if _, err := fmt.Fprintf(w, "%s{%s} %d\n", name, strings.Join(pairs, ","), v.Value); err != nil {
			return err
		}
	}
	return nil
}

func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

// PrometheusHandler serves the registry in Prometheus text format.
func (r *Registry) PrometheusHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.writePrometheus(w)
	})
}

// JSONHandler serves a Snapshot as indented JSON.
func (r *Registry) JSONHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(r.Snapshot())
	})
}

// FunnelPoint is one stage of a pipeline funnel read out of a
// snapshot: a stage name and the record count that reached it.
type FunnelPoint struct {
	Stage string
	Count uint64
}

// Funnel reads the named counters out of the snapshot in order —
// the flows exported → collected → classified accounting the paper's
// tables depend on. Missing counters read as zero.
func (s Snapshot) Funnel(stages ...string) []FunnelPoint {
	out := make([]FunnelPoint, len(stages))
	for i, name := range stages {
		out[i] = FunnelPoint{Stage: name, Count: s.Counters[name]}
	}
	return out
}

// Monotonic reports whether the funnel counts are non-increasing stage
// to stage (no stage "creates" records) — the core accounting
// invariant.
func Monotonic(points []FunnelPoint) bool {
	for i := 1; i < len(points); i++ {
		if points[i].Count > points[i-1].Count {
			return false
		}
	}
	return true
}
