package main

import (
	"fmt"
	"io"
	"net/http"
	"time"

	"booterscope/internal/federation"
	"booterscope/internal/flow"
	"booterscope/internal/flowstore"
	"booterscope/internal/pipe"
	"booterscope/internal/telemetry"
	"booterscope/internal/telemetry/debugserver"
	"booterscope/internal/telemetry/eventlog"
)

// runFederation opens the federation named by a vantages.json manifest
// and serves the -federate / -correlate mode: a merged multi-vantage
// scan summary, and optionally the cross-vantage attack join.
func runFederation(out io.Writer, manifestPath string, correlate bool, debugAddr string) error {
	m, err := federation.LoadManifest(manifestPath)
	if err != nil {
		return err
	}
	reg := telemetry.Default()
	flow.RegisterTelemetry(reg)
	flowstore.RegisterTelemetry(reg)
	pipe.RegisterTelemetry(reg)
	federation.RegisterTelemetry(reg)
	rec := eventlog.New(0)
	eventlog.SetActive(rec)

	c, err := federation.Open(m, federation.Options{})
	if err != nil {
		return err
	}
	defer c.Close()

	srv, err := debugserver.StartWith(debugAddr, reg, map[string]http.Handler{
		"/vantages": c.VantagesHandler(),
	})
	if err != nil {
		return err
	}
	if srv != nil {
		defer srv.Close()
		fmt.Fprintf(out, "debug surface on http://%s/ (metrics, pprof, vantages)\n", srv.Addr())
	}

	fmt.Fprintf(out, "== Federation: %d vantages (%s) ==\n", len(m.Vantages), manifestPath)
	for _, v := range c.Vantages() {
		fmt.Fprintf(out, "  %-8s %-12s skew<=%ds  %s\n", v.Name, v.Tier, v.ClockSkewMaxSeconds, v.Dir)
	}

	stats, err := c.Scan(flowstore.Query{}, func(string, *flow.Record) error { return nil })
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "\nfederated scan: %d records merged across %d vantages\n",
		stats.Total.RecordsMatched, len(stats.PerVantage))
	for _, pv := range stats.PerVantage {
		fmt.Fprintf(out, "  %-8s %-12s %12d records  %6d blocks scanned, %d pruned\n",
			pv.Name, pv.Tier, pv.Stats.RecordsMatched, pv.Stats.BlocksScanned, pv.Stats.BlocksPruned)
	}

	if !correlate {
		return nil
	}

	report, err := c.Correlate(federation.CorrelateOptions{})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "\n== Cross-vantage correlation: %d attacks joined, %d disagreements ==\n",
		len(report.Attacks), report.Disagreements)
	for _, pv := range report.PerVantage {
		fmt.Fprintf(out, "  %-8s %-12s %5d attacks logged, %4d crossed thresholds\n",
			pv.Name, pv.Tier, pv.Attacks, pv.Crossed)
	}
	for _, a := range report.Attacks {
		from := time.Unix(a.FirstMinuteUnix, 0).UTC().Format("2006-01-02 15:04")
		mins := (a.LastMinuteUnix-a.FirstMinuteUnix)/60 + 1
		fmt.Fprintf(out, "\nattack %d  victim %s  %s  %d min\n", a.ID, a.Victim, from, mins)
		for _, name := range a.SeenAt {
			fmt.Fprintf(out, "  seen at    %-8s %8.2f Gbps peak\n", name, a.PerVantageRate[name])
		}
		for _, name := range a.MissingAt {
			fmt.Fprintf(out, "  missing at %-8s\n", name)
		}
	}
	if report.Disagreements > 0 {
		fmt.Fprintf(out, "\n%d of %d attacks are visible at one vantage but missing at another —\n"+
			"the paper's Section 4 caveat: single-vantage attack counts are lower bounds.\n",
			report.Disagreements, len(report.Attacks))
	}
	return nil
}
