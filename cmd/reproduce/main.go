// Command reproduce runs the complete reproduction in one shot: every
// table and figure of the paper, each reduced to its shape claims
// (who wins, by what factor, which effects are significant) and checked
// against the paper's reported values. It prints a PASS/FAIL table and
// exits non-zero if any claim fails — the repository's acceptance test.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net/netip"
	"os"
	"time"

	"booterscope/internal/amplify"
	"booterscope/internal/bgp"
	"booterscope/internal/booter"
	"booterscope/internal/core"
	"booterscope/internal/economy"
	"booterscope/internal/flow"
	"booterscope/internal/ixp"
	"booterscope/internal/observatory"
	"booterscope/internal/telemetry"
	"booterscope/internal/telemetry/debugserver"
	"booterscope/internal/trafficgen"
)

type check struct {
	id    string
	claim string
	ok    bool
	got   string
}

type harness struct {
	checks []check
	// par is the replay worker count for the record analyses (0 =
	// NumCPU); results are identical at any setting.
	par int
	// stdout receives the progress lines printed before the table.
	stdout io.Writer
}

func (h *harness) add(id, claim string, ok bool, format string, args ...any) {
	h.checks = append(h.checks, check{id: id, claim: claim, ok: ok, got: fmt.Sprintf(format, args...)})
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// errClaimsFailed marks a run that completed but reproduced fewer than
// all claims; the table already says which.
var errClaimsFailed = errors.New("claims failed")

// run is the whole command: it parses args, runs every study and
// prints the claim table to stdout. It returns the exit code — 0 when
// every claim reproduces, 1 when one fails or a study errors, 2 on a
// bad flag — so tests can run it in process, more than once.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("reproduce", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		seed  = fs.Uint64("seed", 1, "random seed")
		scale = fs.Float64("scale", 0.3, "traffic scale for landscape/takedown studies")
		par   = fs.Int("parallelism", 0, "replay worker count: 0 = NumCPU, 1 = serial (results identical)")
	)
	debugAddr := debugserver.AddrFlag(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := reproduce(*seed, *scale, *par, *debugAddr, stdout); err != nil {
		if !errors.Is(err, errClaimsFailed) {
			fmt.Fprintf(stderr, "reproduce: %v\n", err)
		}
		return 1
	}
	return 0
}

// reproduce runs the studies and prints the claim table.
func reproduce(seed uint64, scale float64, par int, debugAddr string, stdout io.Writer) error {
	reg := telemetry.NewRegistry()
	flow.RegisterTelemetry(reg)
	bgp.RegisterTelemetry(reg)
	ixp.RegisterTelemetry(reg)
	booter.RegisterTelemetry(reg)
	srv, err := debugserver.Start(debugAddr, reg)
	if err != nil {
		return err
	}
	if srv != nil {
		defer srv.Close()
		fmt.Fprintf(stdout, "debug surface on http://%s/ (metrics, pprof)\n", srv.Addr())
	}

	h := harness{par: par, stdout: stdout}
	for _, study := range []func() error{
		func() error { return h.selfAttack(seed) },
		func() error { return h.landscape(seed, scale) },
		func() error { return h.takedown(seed, scale) },
		func() error { return h.domains(seed) },
		func() error { return h.extensions(seed) },
		func() error { return h.funnel(seed, scale, reg) },
	} {
		if err := study(); err != nil {
			return err
		}
	}

	fmt.Fprintf(stdout, "%-8s %-6s %-58s %s\n", "exp", "result", "claim", "measured")
	failed := 0
	for _, c := range h.checks {
		result := "PASS"
		if !c.ok {
			result = "FAIL"
			failed++
		}
		fmt.Fprintf(stdout, "%-8s %-6s %-58s %s\n", c.id, result, c.claim, c.got)
	}
	fmt.Fprintf(stdout, "\n%d/%d claims reproduced\n", len(h.checks)-failed, len(h.checks))
	if failed > 0 {
		return errClaimsFailed
	}
	return nil
}

// extensions checks the future-work models against the paper's
// conclusions: the economy explains why victims saw no relief, and
// surgical mitigation beats blackholing.
func (h *harness) extensions(seed uint64) error {
	market := economy.NewMarket(economy.Config{
		Start:    core.TakedownDate.AddDate(0, 0, -48),
		Days:     90,
		Takedown: core.TakedownDate,
		Seed:     seed,
	})
	impact, err := economy.Impact(market.Run(), core.TakedownDate, 14)
	if err != nil {
		return err
	}
	h.add("Econ", "seized booters lose most revenue, attack demand barely moves",
		impact.SeizedRevenueRatio() < 0.6 && impact.DemandRatio() > 0.7,
		"seized revenue %.0f%%, demand %.0f%%",
		impact.SeizedRevenueRatio()*100, impact.DemandRatio()*100)

	study, err := core.NewSelfAttackStudy(core.Options{Seed: seed})
	if err != nil {
		return err
	}
	victim := study.Obs.NextTargetIP()
	if err := study.Obs.Fabric.AnnounceFlowSpec(bgp.FlowSpecRule{
		Dst:          netip.PrefixFrom(victim, 32),
		Protocol:     17,
		SrcPort:      123,
		MinPacketLen: 200,
	}); err != nil {
		return err
	}
	atk, err := study.Engine.Launch(booter.Order{
		Service: study.Catalog[1], Vector: amplify.NTP, Tier: booter.VIP,
		Target: victim, Duration: 30 * time.Second,
	})
	if err != nil {
		return err
	}
	rep, err := study.Obs.RunAttack(atk, core.SelfAttackStart, observatory.CaptureOptions{})
	if err != nil {
		return err
	}
	h.add("Mitig", "FlowSpec filters the attack without blackholing the victim",
		rep.PeakMbps() < 100 && rep.PeakFilteredMbps() > 10000,
		"%.0f Mbps reached, %.1f Gbps filtered at the edges",
		rep.PeakMbps(), rep.PeakFilteredMbps()/1000)
	return nil
}

func (h *harness) selfAttack(seed uint64) error {
	study, err := core.NewSelfAttackStudy(core.Options{Seed: seed})
	if err != nil {
		return err
	}

	rows := study.Table1()
	seized := 0
	for _, r := range rows {
		if r.Seized {
			seized++
		}
	}
	h.add("Tab1", "4 booters, A and B seized by the FBI",
		len(rows) == 4 && seized == 2, "%d booters, %d seized", len(rows), seized)

	results, err := study.RunNonVIPAttacks(60 * time.Second)
	if err != nil {
		return err
	}
	var peak float64
	var cldapRefl, cldapPeers, ntpPeers int
	var noTransitVol, transitVol float64
	var noTransitPeers, transitPeers int
	for _, res := range results {
		if p := res.Report.PeakMbps(); p > peak {
			peak = p
		}
		switch res.Label {
		case "booter B CLDAP":
			cldapRefl = res.Report.MaxReflectors()
			cldapPeers = res.Report.MaxPeers()
		case "booter B NTP":
			if ntpPeers == 0 {
				ntpPeers = res.Report.MaxPeers()
			}
		case "booter A NTP":
			transitVol = res.Report.MeanMbps()
			transitPeers = res.Report.MaxPeers()
		case "booter A NTP (no transit)":
			noTransitVol = res.Report.MeanMbps()
			noTransitPeers = res.Report.MaxPeers()
		}
	}
	h.add("Fig1a", "non-VIP attacks peak at multiple Gbps (paper: 7078 Mbps)",
		peak > 2000 && peak <= 7078.1, "peak %.0f Mbps", peak)
	h.add("Fig1a", "CLDAP uses 3519 reflectors over more peers than NTP",
		cldapRefl == 3519 && cldapPeers > ntpPeers,
		"%d reflectors, %d vs %d peers", cldapRefl, cldapPeers, ntpPeers)
	h.add("Fig1a", "no-transit: more peers, less volume",
		noTransitPeers > transitPeers && noTransitVol < transitVol,
		"peers %d->%d, volume %.0f->%.0f Mbps", transitPeers, noTransitPeers, transitVol, noTransitVol)

	vip, err := study.RunVIPAttacks()
	if err != nil {
		return err
	}
	offered := vip[0].Report.PeakOfferedMbps()
	h.add("Fig1b", "VIP NTP generates ~20 Gbps (~25% of advertised 80)",
		offered > 15000 && offered < 21000, "%.1f Gbps offered", offered/1000)
	h.add("Fig1b", "port saturation flaps the transit BGP session",
		vip[0].Report.Flaps >= 1, "%d flap(s)", vip[0].Report.Flaps)

	overlap, err := study.RunReflectorOverlap()
	if err != nil {
		return err
	}
	h.add("Fig1c", "same-day attacks reuse the identical reflector set",
		overlap.Matrix[0][1] == 1, "overlap %.2f", overlap.Matrix[0][1])
	h.add("Fig1c", "overnight set swap drops overlap to ~0",
		overlap.Matrix[4][5] < 0.1, "overlap %.2f", overlap.Matrix[4][5])
	h.add("Fig1c", "moderate churn over two weeks (~30%)",
		overlap.Matrix[0][4] > 0.3 && overlap.Matrix[0][4] < 0.95, "overlap %.2f", overlap.Matrix[0][4])
	return nil
}

// landscape replays its own 30-day archive of all three vantages: IXP
// records that spill past day 29's midnight rule out a time-bounded
// query on the takedown archive (DESIGN §8).
func (h *harness) landscape(seed uint64, scale float64) error {
	study, err := core.GenerateReplay(core.Options{Seed: seed, Scale: scale, Days: 30, Parallelism: h.par})
	if err != nil {
		return err
	}
	defer study.Close()

	dist, err := study.Figure2a()
	if err != nil {
		return err
	}
	h.add("Fig2a", "NTP packet sizes bimodal around the 200 B threshold",
		dist.FractionBelow200 > 0.05 && dist.FractionBelow200 < 0.95,
		"%.0f%% below 200 B (paper: 54%%)", dist.FractionBelow200*100)

	all, err := study.AllVantages()
	if err != nil {
		return err
	}
	byKind := map[trafficgen.Kind]int{}
	var maxGbps float64
	for _, v := range all {
		byKind[v.Vantage] = len(v.Victims)
		if g := v.MaxGbps(); g > maxGbps {
			maxGbps = g
		}
	}
	h.add("Fig2b", "victim counts: IXP > tier-2 > tier-1 (244K/95K/36K)",
		byKind[trafficgen.KindIXP] > byKind[trafficgen.KindTier2] &&
			byKind[trafficgen.KindTier2] > byKind[trafficgen.KindTier1],
		"%d / %d / %d", byKind[trafficgen.KindIXP], byKind[trafficgen.KindTier2], byKind[trafficgen.KindTier1])
	h.add("Fig2b", "attack peaks reach far beyond 100 Gbps (paper: 602)",
		maxGbps > 100 && maxGbps <= 602.1, "max %.0f Gbps", maxGbps)

	t2 := all[2]
	h.add("Fig2c", "majority of victims receive < 1 Gbps",
		t2.RateCDF.At(1) > 0.5, "%.0f%% below 1 Gbps", t2.RateCDF.At(1)*100)
	fs := t2.Filter
	h.add("S4", "conservative filter cuts most optimistic victims (paper: 78%)",
		fs.ReductionBoth() > 0.6 && fs.ReductionBoth() < 0.95,
		"-%.0f%% (rate only -%.0f%%, sources only -%.0f%%)",
		fs.ReductionBoth()*100, fs.ReductionRate()*100, fs.ReductionSources()*100)
	return nil
}

// takedown replays a 122-day archive of the IXP and tier-2 vantages,
// one Analyze pass per vantage.
func (h *harness) takedown(seed uint64, scale float64) error {
	study, err := core.GenerateReplay(core.Options{Seed: seed, Scale: scale, Parallelism: h.par},
		trafficgen.KindIXP, trafficgen.KindTier2)
	if err != nil {
		return err
	}
	defer study.Close()
	tier2, err := study.Analyze(trafficgen.KindTier2)
	if err != nil {
		return err
	}
	ixp, err := study.Analyze(trafficgen.KindIXP)
	if err != nil {
		return err
	}
	red := map[amplify.Vector]float64{}
	sig := map[amplify.Vector]bool{}
	for _, p := range tier2.Figure4 {
		red[p.Vector] = p.Metrics.WT30.Reduction
		sig[p.Vector] = p.Metrics.WT30.Significant
	}
	h.add("Fig4", "tier-2 trigger traffic drops significantly for all vectors",
		sig[amplify.Memcached] && sig[amplify.NTP] && sig[amplify.DNS],
		"mem %t, NTP %t, DNS %t", sig[amplify.Memcached], sig[amplify.NTP], sig[amplify.DNS])
	h.add("Fig4", "reduction ordering: memcached < NTP < DNS (0.22/0.38/0.80)",
		red[amplify.Memcached] < red[amplify.NTP] && red[amplify.NTP] < red[amplify.DNS],
		"red30 %.2f / %.2f / %.2f", red[amplify.Memcached], red[amplify.NTP], red[amplify.DNS])

	var ixpMemSig, ixpDNSSig bool
	for _, p := range ixp.Figure4 {
		if p.Vector == amplify.Memcached {
			ixpMemSig = p.Metrics.WT30.Significant
		}
		if p.Vector == amplify.DNS {
			ixpDNSSig = p.Metrics.WT30.Significant
		}
	}
	h.add("Fig4", "IXP: memcached drop significant, DNS drop not visible",
		ixpMemSig && !ixpDNSSig, "mem %t, DNS %t", ixpMemSig, ixpDNSSig)

	fig5 := ixp.Figure5
	h.add("Fig5", "no significant reduction in systems attacked",
		!fig5.Metrics.WT30.Significant && !fig5.Metrics.WT40.Significant,
		"wt30 %t, wt40 %t", fig5.Metrics.WT30.Significant, fig5.Metrics.WT40.Significant)

	// Robustness ablation: the Welch verdicts survive a non-parametric
	// re-test.
	rob := tier2.Robustness
	agree := 0
	for _, r := range rob {
		if r.Agrees() {
			agree++
		}
	}
	h.add("S5.2", "Welch verdicts agree with the Mann-Whitney rank test",
		agree == len(rob), "%d/%d panels agree", agree, len(rob))
	return nil
}

func (h *harness) domains(seed uint64) error {
	study := core.NewDomainStudy(core.Options{Seed: seed})
	booters := study.IdentifiedBooters()
	h.add("Fig3", "58 booter domains identified by keyword search",
		len(booters) == 58+1, "%d (incl. the successor domain)", len(booters))

	first, atTakedown, last := study.PopulationGrowth()
	h.add("Fig3", "booter population grows despite the seizure",
		first < atTakedown && atTakedown < last, "%d -> %d -> %d", first, atTakedown, last)

	successors := study.SuccessorDomains()
	found := false
	var when time.Time
	for _, d := range successors {
		if d.SuccessorOf != "" {
			found = true
			when = d.Activated
		}
	}
	h.add("Fig3", "seized booter re-emerges on a new domain within days",
		found && when.Sub(core.TakedownDate) <= 7*24*time.Hour,
		"active %s (takedown +%d days)", when.Format("2006-01-02"),
		int(when.Sub(core.TakedownDate).Hours()/24))

	// Control-plane seizure fingerprint: all 15 domains point at the FBI
	// banner host the day after.
	before := len(study.BannerCluster(core.TakedownDate.AddDate(0, 0, -1)))
	after := len(study.BannerCluster(core.TakedownDate.AddDate(0, 0, 1)))
	h.add("S5.1", "seized domains cluster on one banner address",
		before == 0 && after == 15, "%d -> %d domains on the banner", before, after)

	// HTTPS content verification drops the seized panels but finds the
	// successor.
	verified := study.VerifiedByContent(core.TakedownDate.AddDate(0, 0, 4))
	successorVerified := false
	for _, name := range verified {
		for _, d := range successors {
			if d.Name == name && d.SuccessorOf != "" {
				successorVerified = true
			}
		}
	}
	h.add("S5.1", "content verification finds the re-emerged booter",
		successorVerified, "%d booters verified by content", len(verified))
	return nil
}
