package eventlog

import (
	"sort"
	"strconv"
)

// Lifecycle kind suffixes. Emitters prefix them with their component
// (classify_attack_opened, service_flowspec_announced, ...) per the
// naming contract; the timeline builder matches on the suffix so it
// needs no import of — and no coupling to — the emitting packages.
const (
	suffixAttackOpened     = "_attack_opened"
	suffixThresholdCrossed = "_threshold_crossed"
	suffixAlertRaised      = "_alert_raised"
	suffixAttackEvicted    = "_attack_evicted"
	suffixAnnounced        = "_flowspec_announced"
	suffixWithdrawn        = "_flowspec_withdrawn"
	suffixSuppression      = "_suppression_observed"
)

// Timeline is one attack's reconstructed lifecycle — the paper-style
// per-attack record (when it started, when mitigation engaged, how
// much traffic was suppressed) derived purely from the event stream,
// so the live ring and an incident dump yield identical timelines.
type Timeline struct {
	AttackID uint64 `json:"attack_id"`
	Victim   string `json:"victim,omitempty"`

	// Transition times in the recorder's monotonic clock (nanoseconds);
	// 0 means the transition was not observed. OpenedWallNanos
	// duplicates the opening in wall time for human correlation.
	OpenedWallNanos      int64 `json:"opened_wall_nanos,omitempty"`
	OpenedMonoNanos      int64 `json:"opened_mono_nanos,omitempty"`
	ThresholdMonoNanos   int64 `json:"threshold_mono_nanos,omitempty"`
	AlertMonoNanos       int64 `json:"alert_mono_nanos,omitempty"`
	AnnouncedMonoNanos   int64 `json:"announced_mono_nanos,omitempty"`
	WithdrawnMonoNanos   int64 `json:"withdrawn_mono_nanos,omitempty"`
	EvictedMonoNanos     int64 `json:"evicted_mono_nanos,omitempty"`
	SuppressionMonoNanos int64 `json:"suppression_mono_nanos,omitempty"`

	// DetectionLatencySeconds is first suspicious bin → alert raised;
	// TimeToMitigateSeconds is alert raised → FlowSpec announced. Both
	// are 0 when either endpoint is missing.
	DetectionLatencySeconds float64 `json:"detection_latency_seconds"`
	TimeToMitigateSeconds   float64 `json:"time_to_mitigate_seconds"`

	// AlertGbps/AlertSources/AlertBytes echo the alert's measurements.
	AlertGbps    float64 `json:"alert_gbps,omitempty"`
	AlertSources int64   `json:"alert_sources,omitempty"`
	AlertBytes   uint64  `json:"alert_bytes,omitempty"`

	// SuppressedRecords/Bytes are the cumulative attack traffic
	// observed while a mitigation rule was active (traffic a deployed
	// FlowSpec rule would have discarded upstream); SuppressionRatio is
	// suppressed bytes over total attack bytes (alert bytes +
	// suppressed bytes).
	SuppressedRecords uint64  `json:"suppressed_records,omitempty"`
	SuppressedBytes   uint64  `json:"suppressed_bytes,omitempty"`
	SuppressionRatio  float64 `json:"suppression_ratio"`

	// Events is the attack's full event trace in sequence order.
	Events []Event `json:"events"`
}

func hasSuffix(s, suffix string) bool {
	return len(s) >= len(suffix) && s[len(s)-len(suffix):] == suffix
}

// BuildTimelines groups the attack-linked events (AttackID != 0) into
// per-attack lifecycle timelines, ordered by first appearance in the
// stream. The input need not be sorted.
func BuildTimelines(events []Event) []Timeline {
	sorted := make([]Event, len(events))
	copy(sorted, events)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Seq < sorted[j].Seq })

	byID := make(map[uint64]*Timeline)
	var order []uint64
	for i := range sorted {
		ev := &sorted[i]
		if ev.AttackID == 0 {
			continue
		}
		tl, ok := byID[ev.AttackID]
		if !ok {
			tl = &Timeline{AttackID: ev.AttackID}
			byID[ev.AttackID] = tl
			order = append(order, ev.AttackID)
		}
		tl.Events = append(tl.Events, *ev)
		if tl.Victim == "" {
			tl.Victim = ev.attr("victim")
		}
		switch {
		case hasSuffix(ev.Kind, suffixAttackOpened):
			if tl.OpenedMonoNanos == 0 {
				tl.OpenedMonoNanos = ev.MonoNanos
				tl.OpenedWallNanos = ev.WallNanos
			}
		case hasSuffix(ev.Kind, suffixThresholdCrossed):
			if tl.ThresholdMonoNanos == 0 {
				tl.ThresholdMonoNanos = ev.MonoNanos
			}
		case hasSuffix(ev.Kind, suffixAlertRaised):
			if tl.AlertMonoNanos == 0 {
				tl.AlertMonoNanos = ev.MonoNanos
				tl.AlertGbps, _ = strconv.ParseFloat(ev.attr("gbps"), 64)
				tl.AlertSources, _ = strconv.ParseInt(ev.attr("sources"), 10, 64)
				tl.AlertBytes, _ = strconv.ParseUint(ev.attr("bytes"), 10, 64)
			}
		case hasSuffix(ev.Kind, suffixAnnounced):
			if tl.AnnouncedMonoNanos == 0 {
				tl.AnnouncedMonoNanos = ev.MonoNanos
			}
		case hasSuffix(ev.Kind, suffixWithdrawn):
			tl.WithdrawnMonoNanos = ev.MonoNanos
		case hasSuffix(ev.Kind, suffixAttackEvicted):
			tl.EvictedMonoNanos = ev.MonoNanos
		case hasSuffix(ev.Kind, suffixSuppression):
			// Suppression events carry cumulative totals; the latest wins.
			tl.SuppressionMonoNanos = ev.MonoNanos
			tl.SuppressedRecords, _ = strconv.ParseUint(ev.attr("records"), 10, 64)
			tl.SuppressedBytes, _ = strconv.ParseUint(ev.attr("bytes"), 10, 64)
		}
	}

	out := make([]Timeline, 0, len(order))
	for _, id := range order {
		tl := byID[id]
		if tl.OpenedMonoNanos != 0 && tl.AlertMonoNanos != 0 {
			tl.DetectionLatencySeconds = float64(tl.AlertMonoNanos-tl.OpenedMonoNanos) / 1e9
		}
		if tl.AlertMonoNanos != 0 && tl.AnnouncedMonoNanos != 0 {
			tl.TimeToMitigateSeconds = float64(tl.AnnouncedMonoNanos-tl.AlertMonoNanos) / 1e9
		}
		if total := tl.AlertBytes + tl.SuppressedBytes; total > 0 {
			tl.SuppressionRatio = float64(tl.SuppressedBytes) / float64(total)
		}
		out = append(out, *tl)
	}
	return out
}

// TimelineFor returns the timeline of one attack ID (nil when the
// events contain none for it).
func TimelineFor(events []Event, id uint64) *Timeline {
	for _, tl := range BuildTimelines(events) {
		if tl.AttackID == id {
			return &tl
		}
	}
	return nil
}
