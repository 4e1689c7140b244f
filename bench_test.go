// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation, plus ablation benches for the design choices DESIGN.md
// calls out. Each benchmark regenerates the experiment's data — the
// traffic figures replay a flowstore archive generated before the timer
// starts — and reports the headline quantities with b.ReportMetric so
// `go test -bench=.` prints the reproduced numbers next to the timings.
package booterscope_test

import (
	"testing"
	"time"

	"net/netip"

	"booterscope/internal/amplify"
	"booterscope/internal/bgp"
	"booterscope/internal/booter"
	"booterscope/internal/classify"
	"booterscope/internal/core"
	"booterscope/internal/economy"
	"booterscope/internal/flow"
	"booterscope/internal/flowstore"
	"booterscope/internal/honeypot"
	"booterscope/internal/observatory"
	"booterscope/internal/packet"
	"booterscope/internal/reflector"
	"booterscope/internal/trafficgen"
)

// benchSeed keeps every benchmark deterministic.
const benchSeed = 2019

// BenchmarkTable1BooterCatalog regenerates Table 1: the four booters,
// their vectors, prices, and seizure status.
func BenchmarkTable1BooterCatalog(b *testing.B) {
	var rows int
	for i := 0; i < b.N; i++ {
		study, err := core.NewSelfAttackStudy(core.Options{Seed: benchSeed})
		if err != nil {
			b.Fatal(err)
		}
		rows = len(study.Table1())
	}
	b.ReportMetric(float64(rows), "booters")
}

// BenchmarkFigure1aNonVIPAttacks regenerates Figure 1(a): the ten
// non-VIP self-attacks (including the no-transit runs) and their
// traffic/reflector/peer scatter.
func BenchmarkFigure1aNonVIPAttacks(b *testing.B) {
	var peak, mean float64
	var points int
	for i := 0; i < b.N; i++ {
		study, err := core.NewSelfAttackStudy(core.Options{Seed: benchSeed})
		if err != nil {
			b.Fatal(err)
		}
		results, err := study.RunNonVIPAttacks(60 * time.Second)
		if err != nil {
			b.Fatal(err)
		}
		var reports []*observatory.Report
		var meanSum float64
		for _, res := range results {
			if p := res.Report.PeakMbps(); p > peak {
				peak = p
			}
			meanSum += res.Report.MeanMbps()
			reports = append(reports, res.Report)
		}
		mean = meanSum / float64(len(results))
		points = len(observatory.Figure1aData(reports))
	}
	b.ReportMetric(peak, "peak_Mbps")      // paper: 7078
	b.ReportMetric(mean, "mean_Mbps")      // paper: 1440
	b.ReportMetric(float64(points), "pts") // per-second scatter points
}

// BenchmarkFigure1bVIPAttacks regenerates Figure 1(b): the 5-minute VIP
// NTP and memcached attacks with the saturation-induced BGP flap.
func BenchmarkFigure1bVIPAttacks(b *testing.B) {
	var offered float64
	var flaps int
	for i := 0; i < b.N; i++ {
		study, err := core.NewSelfAttackStudy(core.Options{Seed: benchSeed})
		if err != nil {
			b.Fatal(err)
		}
		results, err := study.RunVIPAttacks()
		if err != nil {
			b.Fatal(err)
		}
		offered = results[0].Report.PeakOfferedMbps()
		flaps = results[0].Report.Flaps
	}
	b.ReportMetric(offered/1000, "NTP_peak_Gbps") // paper: ~20
	b.ReportMetric(float64(flaps), "BGP_flaps")   // paper: one drop
}

// BenchmarkFigure1cReflectorOverlap regenerates Figure 1(c): the
// pairwise reflector overlap of 16 self-attacks.
func BenchmarkFigure1cReflectorOverlap(b *testing.B) {
	var sameDay, total float64
	for i := 0; i < b.N; i++ {
		study, err := core.NewSelfAttackStudy(core.Options{Seed: benchSeed})
		if err != nil {
			b.Fatal(err)
		}
		res, err := study.RunReflectorOverlap()
		if err != nil {
			b.Fatal(err)
		}
		sameDay = res.Matrix[0][1]
		total = float64(res.TotalUniqueReflectors)
	}
	b.ReportMetric(sameDay, "same_day_overlap") // paper: identical sets
	b.ReportMetric(total, "unique_reflectors")  // paper: 868
}

// benchReplay generates the scenario opts describes for the given
// vantages into a temporary archive and opens it, then resets the
// timer: the figure benchmarks time the replay, not the generation.
func benchReplay(b *testing.B, opts core.Options, kinds ...trafficgen.Kind) *core.ReplayStudy {
	b.Helper()
	study, err := core.GenerateReplay(opts, kinds...)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { study.Close() })
	b.ResetTimer()
	return study
}

// BenchmarkFigure2aNTPPacketSizes regenerates Figure 2(a): the bimodal
// NTP packet size distribution at the IXP.
func BenchmarkFigure2aNTPPacketSizes(b *testing.B) {
	study := benchReplay(b, core.Options{Seed: benchSeed, Scale: 0.5, Days: 30}, trafficgen.KindIXP)
	var below200 float64
	for i := 0; i < b.N; i++ {
		dist, err := study.Figure2a()
		if err != nil {
			b.Fatal(err)
		}
		below200 = dist.FractionBelow200
	}
	b.ReportMetric(below200*100, "pct_below_200B") // paper: 54
}

// BenchmarkFigure2bVictimScatter regenerates Figure 2(b): per-victim
// traffic peaks and amplifier counts at the three vantage points.
func BenchmarkFigure2bVictimScatter(b *testing.B) {
	study := benchReplay(b, core.Options{Seed: benchSeed, Scale: 0.5, Days: 30})
	var ixpVictims, maxGbps, maxSources float64
	for i := 0; i < b.N; i++ {
		all, err := study.AllVantages()
		if err != nil {
			b.Fatal(err)
		}
		for _, v := range all {
			if v.Vantage == trafficgen.KindIXP {
				ixpVictims = float64(len(v.Victims))
				maxGbps = v.MaxGbps()
			}
			for _, vic := range v.Victims {
				if float64(vic.MaxSources) > maxSources {
					maxSources = float64(vic.MaxSources)
				}
			}
		}
	}
	b.ReportMetric(ixpVictims, "IXP_victims") // paper: 244K (full scale)
	b.ReportMetric(maxGbps, "max_Gbps")       // paper: 602
	b.ReportMetric(maxSources, "max_sources") // paper: ~8500
}

// BenchmarkFigure2cVictimCDFs regenerates Figure 2(c): the CDFs of max
// sources and max Gbps per destination.
func BenchmarkFigure2cVictimCDFs(b *testing.B) {
	study := benchReplay(b, core.Options{Seed: benchSeed, Scale: 0.5, Days: 30}, trafficgen.KindTier2)
	var below10Sources, above1Gbps float64
	for i := 0; i < b.N; i++ {
		v, err := study.Figure2bc(trafficgen.KindTier2)
		if err != nil {
			b.Fatal(err)
		}
		below10Sources = v.SourcesCDF.At(10)
		above1Gbps = 1 - v.RateCDF.At(1)
	}
	b.ReportMetric(below10Sources*100, "pct_below_10_sources") // paper: ~90 (tier-2)
	b.ReportMetric(above1Gbps*100, "pct_above_1Gbps")          // paper: ~9
}

// BenchmarkFigure3AlexaRanks regenerates Figure 3: booter domains in
// the Alexa Top 1M by month.
func BenchmarkFigure3AlexaRanks(b *testing.B) {
	var booters, successors float64
	for i := 0; i < b.N; i++ {
		study := core.NewDomainStudy(core.Options{Seed: benchSeed})
		booters = float64(len(study.IdentifiedBooters()))
		successors = float64(len(study.SuccessorDomains()))
	}
	b.ReportMetric(booters, "booter_domains") // paper: 58
	b.ReportMetric(successors, "new_post_takedown")
}

// BenchmarkFigure4ReflectorTraffic regenerates Figure 4: daily packets
// toward memcached/NTP/DNS reflectors with Welch tests, tier-2
// perspective.
func BenchmarkFigure4ReflectorTraffic(b *testing.B) {
	study := benchReplay(b, core.Options{Seed: benchSeed, Scale: 0.3}, trafficgen.KindTier2)
	var redMem, redNTP, redDNS float64
	for i := 0; i < b.N; i++ {
		a, err := study.Analyze(trafficgen.KindTier2)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range a.Figure4 {
			switch p.Vector {
			case amplify.Memcached:
				redMem = p.Metrics.WT30.Reduction
			case amplify.NTP:
				redNTP = p.Metrics.WT30.Reduction
			case amplify.DNS:
				redDNS = p.Metrics.WT30.Reduction
			}
		}
	}
	b.ReportMetric(redMem*100, "memcached_red30_pct") // paper: 7.3 (tier-2) / 22.5 (IXP)
	b.ReportMetric(redNTP*100, "NTP_red30_pct")       // paper: 39.7
	b.ReportMetric(redDNS*100, "DNS_red30_pct")       // paper: 81.6
}

// BenchmarkFigure5AttackCounts regenerates Figure 5: systems under NTP
// attack per hour, with the (absent) takedown effect.
func BenchmarkFigure5AttackCounts(b *testing.B) {
	study := benchReplay(b, core.Options{Seed: benchSeed, Scale: 0.3}, trafficgen.KindIXP)
	var significant, hours float64
	for i := 0; i < b.N; i++ {
		a, err := study.Analyze(trafficgen.KindIXP)
		if err != nil {
			b.Fatal(err)
		}
		res := a.Figure5
		if res.Metrics.WT30.Significant || res.Metrics.WT40.Significant {
			significant = 1
		}
		hours = float64(len(res.Hourly))
	}
	b.ReportMetric(significant, "significant") // paper: 0 (no reduction)
	b.ReportMetric(hours, "attack_hours")
}

// BenchmarkAblationSizeThreshold sweeps the optimistic classification
// threshold (the paper picks 200 bytes from the bimodal distribution)
// and reports how victim counts respond.
func BenchmarkAblationSizeThreshold(b *testing.B) {
	scenario := trafficgen.NewScenario(trafficgen.Config{
		Start: core.StudyStart, Days: 10, Takedown: core.TakedownDate,
		Seed: benchSeed, Scale: 0.3,
	})
	thresholds := []float64{100, 200, 400, 480}
	var counts [4]float64
	for i := 0; i < b.N; i++ {
		for t, thr := range thresholds {
			c := classify.New(classify.Config{SizeThreshold: thr})
			for day := 0; day < 10; day++ {
				for _, rec := range scenario.Day(trafficgen.KindTier2, day) {
					rec := rec
					c.Add(&rec)
				}
			}
			counts[t] = float64(c.Destinations())
		}
	}
	b.ReportMetric(counts[0], "victims_thr100")
	b.ReportMetric(counts[1], "victims_thr200") // the paper's setting
	b.ReportMetric(counts[2], "victims_thr400")
	b.ReportMetric(counts[3], "victims_thr480")
}

// BenchmarkAblationConservativeRules reproduces the paper's filter
// arithmetic: rule (a) >1 Gbps cuts 74 %, rule (b) >10 amplifiers cuts
// 59 %, both cut 78 %.
func BenchmarkAblationConservativeRules(b *testing.B) {
	scenario := trafficgen.NewScenario(trafficgen.Config{
		Start: core.StudyStart, Days: 20, Takedown: core.TakedownDate,
		Seed: benchSeed, Scale: 0.5,
	})
	var fs classify.FilterStats
	for i := 0; i < b.N; i++ {
		c := classify.New(classify.Config{})
		for day := 0; day < 20; day++ {
			for _, rec := range scenario.Day(trafficgen.KindTier2, day) {
				rec := rec
				c.Add(&rec)
			}
		}
		fs = c.FilterStats()
	}
	b.ReportMetric(fs.ReductionRate()*100, "rate_rule_cut_pct")       // paper: 74
	b.ReportMetric(fs.ReductionSources()*100, "sources_rule_cut_pct") // paper: 59
	b.ReportMetric(fs.ReductionBoth()*100, "both_rules_cut_pct")      // paper: 78
}

// BenchmarkAblationSamplingRate quantifies how the IXP's packet
// sampling rate changes the detected victim population.
func BenchmarkAblationSamplingRate(b *testing.B) {
	rates := []uint32{1000, 10000, 100000}
	var victims [3]float64
	for i := 0; i < b.N; i++ {
		for ri, rate := range rates {
			scenario := trafficgen.NewScenario(trafficgen.Config{
				Start: core.StudyStart, Days: 10, Takedown: core.TakedownDate,
				Seed: benchSeed, Scale: 0.3, IXPSamplingRate: rate,
			})
			c := classify.New(classify.Config{})
			for day := 0; day < 10; day++ {
				for _, rec := range scenario.Day(trafficgen.KindIXP, day) {
					rec := rec
					c.Add(&rec)
				}
			}
			victims[ri] = float64(c.Destinations())
		}
	}
	b.ReportMetric(victims[0], "victims_1in1k")
	b.ReportMetric(victims[1], "victims_1in10k") // the study's platform
	b.ReportMetric(victims[2], "victims_1in100k")
}

// BenchmarkAblationTransitHandover reproduces the transit-enabled vs
// no-transit handover experiment: disabling transit raises the peer
// count and cuts the delivered volume.
func BenchmarkAblationTransitHandover(b *testing.B) {
	var peersOn, peersOff, volOn, volOff float64
	for i := 0; i < b.N; i++ {
		for _, transit := range []bool{true, false} {
			study, err := core.NewSelfAttackStudy(core.Options{Seed: benchSeed})
			if err != nil {
				b.Fatal(err)
			}
			if err := study.Fabric.SetTransit(transit); err != nil {
				b.Fatal(err)
			}
			svc := study.Catalog[0]
			atk, err := study.Engine.Launch(booter.Order{
				Service:  svc,
				Vector:   amplify.NTP,
				Target:   study.Obs.NextTargetIP(),
				Duration: 60 * time.Second,
			})
			if err != nil {
				b.Fatal(err)
			}
			rep, err := study.Obs.RunAttack(atk, core.SelfAttackStart, observatory.CaptureOptions{})
			if err != nil {
				b.Fatal(err)
			}
			if transit {
				peersOn, volOn = float64(rep.MaxPeers()), rep.MeanMbps()
			} else {
				peersOff, volOff = float64(rep.MaxPeers()), rep.MeanMbps()
			}
		}
	}
	b.ReportMetric(peersOn, "peers_transit")     // paper: <30
	b.ReportMetric(peersOff, "peers_no_transit") // paper: >40
	b.ReportMetric(volOn, "Mbps_transit")
	b.ReportMetric(volOff, "Mbps_no_transit") // paper: <3000 vs ~7000
}

// BenchmarkTakedownFullPipeline measures the complete Section 5
// analysis at all three vantage points, replayed from their archive.
func BenchmarkTakedownFullPipeline(b *testing.B) {
	study := benchReplay(b, core.Options{Seed: benchSeed, Scale: 0.2})
	for i := 0; i < b.N; i++ {
		for _, k := range study.Kinds() {
			if _, err := study.Analyze(k); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkExtensionEconomy runs the booter-market model around the
// takedown — the paper's future-work question about the booter economy.
func BenchmarkExtensionEconomy(b *testing.B) {
	var seizedRatio, demandRatio float64
	for i := 0; i < b.N; i++ {
		m := economy.NewMarket(economy.Config{
			Start:    core.TakedownDate.AddDate(0, 0, -48),
			Days:     90,
			Takedown: core.TakedownDate,
			Seed:     benchSeed,
		})
		impact, err := economy.Impact(m.Run(), core.TakedownDate, 14)
		if err != nil {
			b.Fatal(err)
		}
		seizedRatio = impact.SeizedRevenueRatio()
		demandRatio = impact.DemandRatio()
	}
	b.ReportMetric(seizedRatio*100, "seized_revenue_pct")
	b.ReportMetric(demandRatio*100, "attack_demand_pct") // stays near 100
}

// BenchmarkExtensionHoneypotAttribution measures honeypot-based
// attack-to-booter attribution (Krupp et al.'s technique on this
// substrate).
func BenchmarkExtensionHoneypotAttribution(b *testing.B) {
	var rate float64
	for i := 0; i < b.N; i++ {
		pool := reflector.NewPool(amplify.NTP, 20000, 300, benchSeed)
		dep := honeypot.NewDeployment(pool, 600, benchSeed)
		eng := booter.NewEngine(map[amplify.Vector]*reflector.Pool{amplify.NTP: pool}, benchSeed)
		attr := honeypot.NewAttributor()
		// Train on self-attacks from A and B, then observe wild attacks
		// from all four booters.
		for _, name := range []string{"A", "B"} {
			svc, err := booter.ServiceByName(name)
			if err != nil {
				b.Fatal(err)
			}
			atk, err := eng.Launch(booter.Order{
				Service: svc, Vector: amplify.NTP,
				Target:   netip.MustParseAddr("203.0.113.99"),
				Duration: 30 * time.Second,
			})
			if err != nil {
				b.Fatal(err)
			}
			attr.TrainFromSelfAttack(atk)
		}
		for j, name := range []string{"A", "B", "C", "D"} {
			svc, err := booter.ServiceByName(name)
			if err != nil {
				b.Fatal(err)
			}
			atk, err := eng.Launch(booter.Order{
				Service: svc, Vector: amplify.NTP,
				Target:   netip.AddrFrom4([4]byte{198, 51, 100, byte(j + 1)}),
				Duration: 60 * time.Second,
			})
			if err != nil {
				b.Fatal(err)
			}
			dep.ObserveAttack(atk, core.SelfAttackStart.Add(time.Duration(j)*time.Hour))
		}
		rate = attr.Report(dep.Reconstruct()).Rate()
	}
	b.ReportMetric(rate*100, "attribution_pct") // 2 of 4 booters trained
}

// BenchmarkExtensionBlackholeMitigation measures the RTBH valve: how
// fast a runaway self-attack is cut off and how much traffic the
// neighbors drop.
func BenchmarkExtensionBlackholeMitigation(b *testing.B) {
	var cutSecond, droppedSeconds float64
	for i := 0; i < b.N; i++ {
		study, err := core.NewSelfAttackStudy(core.Options{Seed: benchSeed})
		if err != nil {
			b.Fatal(err)
		}
		svc := study.Catalog[1] // booter B
		target := study.Obs.NextTargetIP()
		atk, err := study.Engine.Launch(booter.Order{
			Service: svc, Vector: amplify.NTP, Tier: booter.VIP,
			Target: target, Duration: 2 * time.Minute,
		})
		if err != nil {
			b.Fatal(err)
		}
		triggered := -1
		rep, err := study.Obs.RunAttack(atk, core.SelfAttackStart, observatory.CaptureOptions{
			OnSample: func(s observatory.SecondSample) {
				if triggered < 0 && s.Mbps > 8000 {
					triggered = s.Second
					if err := study.Obs.Fabric.AnnounceBlackhole(target); err != nil {
						b.Fatal(err)
					}
				}
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		cutSecond = float64(triggered)
		dropped := 0
		for _, s := range rep.Samples {
			if s.Blackholed {
				dropped++
			}
		}
		droppedSeconds = float64(dropped)
	}
	b.ReportMetric(cutSecond, "valve_second")
	b.ReportMetric(droppedSeconds, "dropped_seconds")
}

// BenchmarkFlowstoreIngest measures the flow archive's append path:
// eight days of tier-2 traffic routed through the sharded columnar
// writers, sealed and manifested, reporting throughput and the on-disk
// cost per record.
func BenchmarkFlowstoreIngest(b *testing.B) {
	scenario := trafficgen.NewScenario(trafficgen.Config{
		Start: core.StudyStart, Days: 8, Takedown: core.TakedownDate,
		Seed: benchSeed, Scale: 0.3,
	})
	days := make([][]flow.Record, 8)
	total := 0
	for d := range days {
		days[d] = scenario.Day(trafficgen.KindTier2, d)
		total += len(days[d])
	}
	b.ResetTimer()
	var stats flowstore.Stats
	for i := 0; i < b.N; i++ {
		st, err := flowstore.Open(b.TempDir(), flowstore.Options{NoSync: true})
		if err != nil {
			b.Fatal(err)
		}
		for _, recs := range days {
			if err := st.Append(recs); err != nil {
				b.Fatal(err)
			}
		}
		if err := st.Close(); err != nil {
			b.Fatal(err)
		}
		stats = st.Stats()
	}
	b.ReportMetric(float64(total)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
	b.ReportMetric(float64(stats.BytesWritten)/float64(total), "bytes/record")
}

// BenchmarkFlowstoreScan measures the archive's query path over a
// 30-day IXP store: a narrow time+victim predicate that the sparse
// indexes must prune (the acceptance bar is ≥80 % of blocks skipped)
// against the full-window scan that decodes everything.
func BenchmarkFlowstoreScan(b *testing.B) {
	scenario := trafficgen.NewScenario(trafficgen.Config{
		Start: core.StudyStart, Days: 30, Takedown: core.TakedownDate,
		Seed: benchSeed, Scale: 0.3,
	})
	st, err := flowstore.Open(b.TempDir(), flowstore.Options{NoSync: true, BlockRecords: 512})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	// The narrow query targets one victim on one day; pick it from the
	// queried day so the predicate actually has records to match.
	const queryDay = 14
	var victim netip.Addr
	total := 0
	for d := 0; d < 30; d++ {
		recs := scenario.Day(trafficgen.KindIXP, d)
		if d == queryDay {
			for i := range recs {
				if recs[i].Protocol == packet.IPProtoUDP && recs[i].SrcPort == classify.NTPPort {
					victim = recs[i].Dst
					break
				}
			}
		}
		total += len(recs)
		if err := st.Append(recs); err != nil {
			b.Fatal(err)
		}
	}
	if err := st.Seal(); err != nil {
		b.Fatal(err)
	}
	if !victim.IsValid() {
		b.Fatal("no NTP victim in generated traffic")
	}

	b.Run("pruned", func(b *testing.B) {
		q := flowstore.Query{
			From:      core.StudyStart.AddDate(0, 0, queryDay),
			To:        core.StudyStart.AddDate(0, 0, queryDay+1),
			Dst:       victim,
			Protocols: []uint8{packet.IPProtoUDP},
		}
		var stats flowstore.ScanStats
		matched := 0
		for i := 0; i < b.N; i++ {
			matched = 0
			stats, err = st.Scan(q, func(*flow.Record) error { matched++; return nil })
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(stats.PruneFraction()*100, "blocks_pruned_pct") // acceptance: ≥80
		b.ReportMetric(float64(matched), "matched_records")
	})
	b.Run("full", func(b *testing.B) {
		scanned := 0
		for i := 0; i < b.N; i++ {
			scanned = 0
			if _, err := st.Scan(flowstore.Query{}, func(*flow.Record) error { scanned++; return nil }); err != nil {
				b.Fatal(err)
			}
		}
		if scanned != total {
			b.Fatalf("full scan returned %d of %d records", scanned, total)
		}
		b.ReportMetric(float64(scanned)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
	})
}

// BenchmarkAblationWelchVsRank compares the parametric and
// non-parametric significance verdicts across the Figure 4 panels — the
// design-choice ablation for testing heavy-tailed daily sums with a
// t-test.
func BenchmarkAblationWelchVsRank(b *testing.B) {
	study := benchReplay(b, core.Options{Seed: benchSeed, Scale: 0.3})
	var agree, total float64
	for i := 0; i < b.N; i++ {
		agree, total = 0, 0
		for _, k := range study.Kinds() {
			a, err := study.Analyze(k)
			if err != nil {
				b.Fatal(err)
			}
			for _, r := range a.Robustness {
				total++
				if r.Agrees() {
					agree++
				}
			}
		}
	}
	b.ReportMetric(agree, "agreements")
	b.ReportMetric(total, "panels")
}

// BenchmarkExtensionFlowSpecVsRTBH compares the two mitigation options
// on the same VIP attack: RTBH blackholing drops everything toward the
// victim (completing the DoS), FlowSpec discards only the amplification
// traffic and keeps the victim reachable.
func BenchmarkExtensionFlowSpecVsRTBH(b *testing.B) {
	var rtbhDelivered, fsDelivered, fsFiltered float64
	for i := 0; i < b.N; i++ {
		for _, mode := range []string{"rtbh", "flowspec"} {
			study, err := core.NewSelfAttackStudy(core.Options{Seed: benchSeed})
			if err != nil {
				b.Fatal(err)
			}
			victim := study.Obs.NextTargetIP()
			// Mitigation pre-armed for the whole run.
			switch mode {
			case "rtbh":
				if err := study.Obs.Fabric.AnnounceBlackhole(victim); err != nil {
					b.Fatal(err)
				}
			case "flowspec":
				if err := study.Obs.Fabric.AnnounceFlowSpec(bgp.FlowSpecRule{
					Dst:          netip.PrefixFrom(victim, 32),
					Protocol:     17,
					SrcPort:      123,
					MinPacketLen: 200,
				}); err != nil {
					b.Fatal(err)
				}
			}
			atk, err := study.Engine.Launch(booter.Order{
				Service: study.Catalog[1], Vector: amplify.NTP, Tier: booter.VIP,
				Target: victim, Duration: 30 * time.Second,
			})
			if err != nil {
				b.Fatal(err)
			}
			rep, err := study.Obs.RunAttack(atk, core.SelfAttackStart, observatory.CaptureOptions{})
			if err != nil {
				b.Fatal(err)
			}
			switch mode {
			case "rtbh":
				rtbhDelivered = rep.MeanMbps()
			case "flowspec":
				fsDelivered = rep.MeanMbps()
				fsFiltered = rep.PeakFilteredMbps()
			}
		}
	}
	b.ReportMetric(rtbhDelivered, "rtbh_attack_Mbps")   // 0: victim fully dark
	b.ReportMetric(fsDelivered, "flowspec_attack_Mbps") // ~0: attack filtered at the edge
	b.ReportMetric(fsFiltered, "flowspec_filtered_Mbps")
}
