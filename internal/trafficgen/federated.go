package trafficgen

import (
	"fmt"
	"hash/fnv"
	"net/netip"
	"time"

	"booterscope/internal/flow"
	"booterscope/internal/netutil"
)

// FederatedView describes how one vantage in a federated deployment
// observes shared ground-truth traffic. The paper's Table 1 asymmetry
// — 834B packet-sampled IXP flows vs 6.6B tier-1 vs 470M tier-2
// records — reduces to two knobs: which share of destinations routes
// across the vantage at all (Visibility) and how aggressively the
// platform packet-samples what it does see (SamplingRate).
//
// Unlike Kind-based generation (Scenario.Day), where each vantage
// draws an independent traffic process, every FederatedView observes
// the SAME underlying flows — so cross-vantage correlation has a
// ground truth to disagree about: an attack invisible at a vantage is
// invisible because of that vantage's routing or sampling, not
// because it never happened there.
type FederatedView struct {
	// Name identifies the vantage; it keys visibility decisions, so
	// two views with different names see different destination subsets.
	Name string
	// Tier is a free-form label (ixp, tier-1 isp, ...) carried into
	// manifests for reporting.
	Tier string
	// Visibility is the fraction of destination addresses whose
	// traffic crosses this vantage, in (0, 1]. The decision is a
	// deterministic hash of (Name, Dst), so an attack toward one
	// victim is wholly visible or wholly missing — the paper's
	// "seen at the IXP, missing at the tier-1" shape.
	Visibility float64
	// SamplingRate is the vantage's 1-in-N packet sampling; 0 or 1
	// means unsampled. Sampled records carry the rate so analyses can
	// scale counters back up.
	SamplingRate uint32
}

// visible decides whether traffic toward dst routes across the view:
// an FNV-1a hash of (view name, destination) against the visibility
// fraction. Pure per-destination — independent of record order, day,
// and the other views.
func (v FederatedView) visible(dst netip.Addr) bool {
	if v.Visibility >= 1 {
		return true
	}
	h := fnv.New64a()
	h.Write([]byte(v.Name))
	b := dst.As16()
	h.Write(b[:])
	// Map the hash to [0, 1) with 53 usable bits.
	frac := float64(h.Sum64()>>11) / float64(1<<53)
	return frac < v.Visibility
}

// sampleFrac is a second per-record hash channel (name, dst, start
// nanos) used for the probabilistic rounding of packet sampling, so
// sampling is deterministic per record without threading a rand whose
// consumption order would couple the views to each other.
func (v FederatedView) sampleFrac(r *flow.Record) uint64 {
	h := fnv.New64a()
	h.Write([]byte(v.Name))
	b := r.Dst.As16()
	h.Write(b[:])
	s := r.Src.As16()
	h.Write(s[:])
	var t [8]byte
	n := uint64(r.Start.UnixNano())
	for i := 0; i < 8; i++ {
		t[i] = byte(n >> (8 * i))
	}
	h.Write(t[:])
	return h.Sum64()
}

// Observe derives the view's observation of ground-truth records:
// destinations outside the visibility fraction vanish entirely;
// surviving records are packet-sampled at SamplingRate with unbiased
// probabilistic rounding (expected scaled counters equal the ground
// truth). Input order is preserved; the input slice is not modified.
func (v FederatedView) Observe(recs []flow.Record) []flow.Record {
	out := make([]flow.Record, 0, len(recs))
	rate := uint64(v.SamplingRate)
	for i := range recs {
		rec := recs[i]
		if !v.visible(rec.Dst) {
			continue
		}
		if rate > 1 {
			sampled := rec.Packets / rate
			rem := rec.Packets % rate
			// Round up with probability rem/rate, decided by the
			// record's own hash channel.
			if v.sampleFrac(&rec)%rate < rem {
				sampled++
			}
			if sampled == 0 {
				continue
			}
			avg := rec.Bytes / rec.Packets
			rec.Packets = sampled
			rec.Bytes = sampled * avg
			rec.SamplingRate = v.SamplingRate
		}
		out = append(out, rec)
	}
	return out
}

// FederatedDay generates one day of shared ground-truth traffic plus
// each view's observation of it. The ground truth uses the tier-2
// generating process (full bidirectional view, no platform sampling)
// with a dedicated rand fork, so federated scenarios coexist with
// per-Kind days under one seed. perView[i] corresponds to views[i].
//
// Every ground-truth record gets a distinct nanosecond start-time
// offset (its index within the day). That makes the merged time order
// of any subset union total up to per-view copies of the same record,
// which is what lets TestFederatedMatchesMerged demand byte-identical
// streams from a federated scan and a single union archive.
func (s *Scenario) FederatedDay(day int, views []FederatedView) (union []flow.Record, perView [][]flow.Record) {
	r := netutil.NewRand(s.cfg.Seed).Fork(fmt.Sprintf("fed-day-%d", day))
	dayStart := s.DayTime(day)
	b := bases[KindTier2]

	var recs []flow.Record
	recs = s.appendTriggerFlows(recs, r, KindTier2, day, dayStart, b)
	recs = s.appendBenignNTP(recs, r, dayStart, b)
	recs = s.appendNoiseDests(recs, r, dayStart, b)
	recs = s.appendAttacks(recs, r, KindTier2, dayStart, b)
	for i := range recs {
		recs[i].Start = recs[i].Start.Add(time.Duration(i) * time.Nanosecond)
	}

	perView = make([][]flow.Record, len(views))
	for i, v := range views {
		perView[i] = v.Observe(recs)
	}
	return recs, perView
}
