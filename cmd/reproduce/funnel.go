package main

import (
	"fmt"

	"booterscope/internal/classify"
	"booterscope/internal/core"
	"booterscope/internal/ipfix"
	"booterscope/internal/telemetry"
	"booterscope/internal/trafficgen"
)

// Funnel counter names, in pipeline order. Monotonicity across them
// (no stage creates records) is the accounting invariant the paper's
// volume tables rest on.
const (
	funnelExported   = "funnel_exported_records_total"
	funnelCollected  = "funnel_collected_records_total"
	funnelClassified = "funnel_classified_records_total"
)

// funnel pushes one deterministic tier-2 day through the full
// export → collect → classify pipeline in process — encoder output fed
// straight to the decoder, no UDP, so nothing can be lost in transit —
// and checks the telemetry funnel: exported ≥ collected ≥ classified,
// with the first two exactly equal on the lossless path.
func (h *harness) funnel(seed uint64, scale float64, reg *telemetry.Registry) error {
	exported := reg.Counter(funnelExported, "records encoded for export")
	collected := reg.Counter(funnelCollected, "records decoded at the collector")
	classified := reg.Counter(funnelClassified, "records passing the optimistic amplified-NTP filter")

	scenario := trafficgen.NewScenario(trafficgen.Config{
		Start:    core.StudyStart,
		Days:     1,
		Takedown: core.TakedownDate,
		Seed:     seed,
		Scale:    scale,
	})
	records := scenario.Day(trafficgen.KindTier2, 0)

	enc := &ipfix.Encoder{DomainID: 64512, TemplateRefresh: 1}
	dec := ipfix.NewDecoder()
	monitor := classify.NewMonitor(classify.Config{})
	ts := scenario.DayTime(0)
	for i := 0; i < len(records); i += 50 {
		end := i + 50
		if end > len(records) {
			end = len(records)
		}
		batch := records[i:end]

		msg, err := enc.Encode(batch, ts)
		if err != nil {
			return err
		}
		exported.Add(uint64(len(batch)))

		recs, err := dec.Decode(msg)
		if err != nil {
			return err
		}
		collected.Add(uint64(len(recs)))

		for j := range recs {
			monitor.Add(&recs[j])
		}
	}
	classified.Add(monitor.Stats().Matched)

	points := reg.Snapshot().Funnel(funnelExported, funnelCollected, funnelClassified)
	fmt.Fprintf(h.stdout, "telemetry funnel: exported=%d collected=%d classified=%d\n",
		points[0].Count, points[1].Count, points[2].Count)
	h.add("Funnel", "telemetry funnel is monotonic and lossless in process",
		telemetry.Monotonic(points) && points[0].Count > 0 && points[0].Count == points[1].Count,
		"exported %d >= collected %d >= classified %d",
		points[0].Count, points[1].Count, points[2].Count)
	return nil
}
