package ixp

import "booterscope/internal/telemetry"

// Package-level aggregates across every Fabric in the process, with
// opt-in registration (tests create many fabrics; a binary registers
// once).
var (
	metricTransitBytes     = telemetry.NewCounter()
	metricPeeringBytes     = telemetry.NewCounter()
	metricUnreachableBytes = telemetry.NewCounter()
	metricDroppedBytes     = telemetry.NewCounter()
	metricFlowSpecBytes    = telemetry.NewCounter()
	metricTransitFlaps     = telemetry.NewCounter()
	metricExportRecords    = telemetry.NewCounter()
)

// RegisterTelemetry attaches the package's aggregate fabric accounting
// to r under the ixp_* names.
func RegisterTelemetry(r *telemetry.Registry) {
	r.MustRegister("ixp_handover_transit_bytes_total", "traffic delivered over the measurement AS transit link", metricTransitBytes)
	r.MustRegister("ixp_handover_peering_bytes_total", "traffic handed over across the peering LAN", metricPeeringBytes)
	r.MustRegister("ixp_handover_unreachable_bytes_total", "traffic offered by networks with no path", metricUnreachableBytes)
	r.MustRegister("ixp_handover_dropped_bytes_total", "traffic clipped at the measurement port capacity", metricDroppedBytes)
	r.MustRegister("ixp_flowspec_filtered_bytes_total", "traffic discarded at the neighbors' edges by FlowSpec rules", metricFlowSpecBytes)
	r.MustRegister("ixp_transit_session_flaps_total", "transit BGP sessions flapped by saturation", metricTransitFlaps)
	r.MustRegister("ixp_platform_export_records_total", "sampled IPFIX-view flow records emitted by the platform", metricExportRecords)
}
