package telemetry

import (
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// promSampleRE matches one Prometheus text-format sample line:
// name{label="value",...} value
var promSampleRE = regexp.MustCompile(`^([a-z][a-z0-9_]*)(\{([^}]*)\})? (\S+)$`)

var promLabelRE = regexp.MustCompile(`^[a-z][a-z0-9_]*="(?:[^"\\]|\\.)*"$`)

// TestPrometheusOutputParses renders a populated registry and checks
// every line is either a well-formed comment or a well-formed sample
// (name, labels, numeric value) — the exposition-format gate from the
// satellite tasks.
func TestPrometheusOutputParses(t *testing.T) {
	r := NewRegistry()
	r.Counter("ipfix_collector_messages_total", "datagrams read").Add(12)
	r.Gauge("ipfix_collector_queue_depth_high_watermark", "peak queue depth").Set(7)
	h := NewHistogram(0.01, 0.1, 1)
	r.MustRegister("ipfix_exporter_backoff_seconds", "retry delays", h)
	h.Observe(0.05)
	vec := NewCounterVec("kind")
	r.MustRegister("chaos_proxy_faults_total", "faults by kind", vec)
	vec.With("drop").Add(3)
	vec.With("re\"order\nx").Inc() // exercises label escaping
	if err := r.register("classify_monitor_active_minute_bins", "occupancy", func() float64 { return 4 }); err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	if err := r.writePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()

	types := map[string]string{}
	samples := map[string]float64{}
	var families []string
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			switch parts[3] {
			case "counter", "gauge", "histogram":
			default:
				t.Fatalf("unknown metric type in %q", line)
			}
			types[parts[2]] = parts[3]
			families = append(families, parts[2])
			continue
		}
		m := promSampleRE.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("unparseable sample line: %q", line)
		}
		name, labels, value := m[1], m[3], m[4]
		if labels != "" {
			// Split on commas outside quotes; our writer never emits
			// commas inside label values unescaped quotes, so check each
			// pair shape.
			for _, pair := range splitLabelPairs(labels) {
				if !promLabelRE.MatchString(pair) {
					t.Fatalf("malformed label pair %q in line %q", pair, line)
				}
			}
		}
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			t.Fatalf("non-numeric value in %q: %v", line, err)
		}
		samples[line] = v
		_ = name
	}

	// Every registered family appears with the right TYPE.
	for fam, typ := range map[string]string{
		"ipfix_collector_messages_total":             "counter",
		"ipfix_collector_queue_depth_high_watermark": "gauge",
		"ipfix_exporter_backoff_seconds":             "histogram",
		"chaos_proxy_faults_total":                   "counter",
		"classify_monitor_active_minute_bins":        "gauge",
	} {
		if types[fam] != typ {
			t.Fatalf("family %s has TYPE %q, want %q", fam, types[fam], typ)
		}
	}
	if samples[`ipfix_collector_messages_total 12`] != 12 {
		t.Fatalf("missing counter sample; output:\n%s", out)
	}
	if samples[`chaos_proxy_faults_total{kind="drop"} 3`] != 3 {
		t.Fatalf("missing labeled sample; output:\n%s", out)
	}

	// Histogram buckets are cumulative and end at +Inf == _count.
	var bucketLines []string
	for line := range samples {
		if strings.HasPrefix(line, "ipfix_exporter_backoff_seconds_bucket") {
			bucketLines = append(bucketLines, line)
		}
	}
	sort.Strings(bucketLines)
	if len(bucketLines) != 4 { // 3 bounds + +Inf
		t.Fatalf("bucket lines = %d, want 4:\n%v", len(bucketLines), bucketLines)
	}
	if samples[`ipfix_exporter_backoff_seconds_bucket{le="+Inf"} 1`] != 1 {
		t.Fatalf("missing +Inf bucket; output:\n%s", out)
	}
	if samples[`ipfix_exporter_backoff_seconds_count 1`] != 1 {
		t.Fatalf("missing _count; output:\n%s", out)
	}

	// Families are emitted sorted by name.
	if !sort.StringsAreSorted(families) {
		t.Fatalf("families not sorted: %v", families)
	}
}

// TestPrometheusHelpAndTypeLines pins the comment-line contract for
// the observability families PR 7 added (the burn-rate gauges and the
// flight recorder's per-component counter vec): every family gets
// exactly one HELP line carrying the registered help text and one TYPE
// line, HELP before TYPE, both before the first sample.
func TestPrometheusHelpAndTypeLines(t *testing.T) {
	r := NewRegistry()
	r.Gauge("service_slo_burn_rate_fast", "error-budget burn rate over the fast window").Set(1.5)
	r.Gauge("service_slo_burn_rate_slow", "error-budget burn rate over the slow window").Set(0.5)
	vec := NewCounterVec("component")
	r.MustRegister("eventlog_events_total", "events emitted by component", vec)
	vec.With("classify").Add(2)

	var sb strings.Builder
	if err := r.writePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(sb.String(), "\n"), "\n")

	wantHelp := map[string]string{
		"service_slo_burn_rate_fast": "error-budget burn rate over the fast window",
		"service_slo_burn_rate_slow": "error-budget burn rate over the slow window",
		"eventlog_events_total":      "events emitted by component",
	}
	wantType := map[string]string{
		"service_slo_burn_rate_fast": "gauge",
		"service_slo_burn_rate_slow": "gauge",
		"eventlog_events_total":      "counter",
	}
	helpSeen, typeSeen, sampleSeen := map[string]int{}, map[string]int{}, map[string]bool{}
	for _, line := range lines {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			rest := strings.TrimPrefix(line, "# HELP ")
			name, help, _ := strings.Cut(rest, " ")
			helpSeen[name]++
			if want, ok := wantHelp[name]; ok && help != want {
				t.Errorf("HELP for %s = %q, want %q", name, help, want)
			}
			if typeSeen[name] > 0 || sampleSeen[name] {
				t.Errorf("HELP for %s appears after its TYPE or samples", name)
			}
		case strings.HasPrefix(line, "# TYPE "):
			parts := strings.Fields(line)
			typeSeen[parts[2]]++
			if want, ok := wantType[parts[2]]; ok && parts[3] != want {
				t.Errorf("TYPE for %s = %q, want %q", parts[2], parts[3], want)
			}
			if sampleSeen[parts[2]] {
				t.Errorf("TYPE for %s appears after its samples", parts[2])
			}
		default:
			if m := promSampleRE.FindStringSubmatch(line); m != nil {
				fam := strings.TrimSuffix(strings.TrimSuffix(m[1], "_bucket"), "_count")
				sampleSeen[fam] = true
			}
		}
	}
	for name := range wantHelp {
		if helpSeen[name] != 1 || typeSeen[name] != 1 {
			t.Errorf("family %s: %d HELP, %d TYPE lines, want 1 each", name, helpSeen[name], typeSeen[name])
		}
	}
}

// TestPrometheusVecOverflowFoldsToOther pins the cardinality cap on
// the flight recorder's per-component vec: label values past the cap
// fold into the "_other" child instead of growing the scrape without
// bound, and the folded counts are preserved.
func TestPrometheusVecOverflowFoldsToOther(t *testing.T) {
	r := NewRegistry()
	vec := NewCounterVec("component")
	r.MustRegister("eventlog_events_total", "events emitted by component", vec)
	vec.SetMaxCardinality(2)
	vec.With("classify").Add(5)
	vec.With("service").Add(3)
	vec.With("ipfix").Add(2) // over the cap: folds
	vec.With("bgp").Inc()    // also folds, into the same child

	var sb strings.Builder
	if err := r.writePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`eventlog_events_total{component="classify"} 5`,
		`eventlog_events_total{component="service"} 3`,
		`eventlog_events_total{component="_other"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in output:\n%s", want, out)
		}
	}
	if strings.Contains(out, `component="ipfix"`) || strings.Contains(out, `component="bgp"`) {
		t.Errorf("over-cap label values leaked into the scrape:\n%s", out)
	}
}

// splitLabelPairs splits `a="x",b="y"` on commas that are outside
// quoted values.
func splitLabelPairs(s string) []string {
	var out []string
	depth := false // inside quotes
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++
		case '"':
			depth = !depth
		case ',':
			if !depth {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	return append(out, s[start:])
}
