// Command domainobs runs the Section 5.1 control-plane analysis of
// booter domains: weekly zone snapshots, keyword identification, Alexa
// Top 1M ranks by month (Figure 3), and the post-takedown re-emergence
// of booter A under a new domain.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"booterscope/internal/core"
	"booterscope/internal/netutil"
	"booterscope/internal/telemetry"
	"booterscope/internal/telemetry/debugserver"
	"booterscope/internal/textplot"
	"booterscope/internal/webobs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command with its arguments and output streams passed in,
// so a test can drive it in process; it returns the exit code: 0 on
// success, 1 when the analysis fails, 2 on a bad flag.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("domainobs", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Uint64("seed", 1, "random seed")
	debugAddr := debugserver.AddrFlag(fs)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if err := analyze(stdout, *seed, *debugAddr); err != nil {
		fmt.Fprintf(stderr, "domainobs: %v\n", err)
		return 1
	}
	return 0
}

// analyze runs the domain study and prints its findings.
func analyze(out io.Writer, seed uint64, debugAddr string) error {
	srv, err := debugserver.Start(debugAddr, telemetry.Default())
	if err != nil {
		return err
	}
	if srv != nil {
		defer srv.Close()
		fmt.Fprintf(out, "debug surface on http://%s/ (metrics, pprof)\n", srv.Addr())
	}

	study := core.NewDomainStudy(core.Options{Seed: seed})

	booters := study.IdentifiedBooters()
	fmt.Fprintf(out, "verified booter domains in .com/.net/.org zones: %d (paper: 58)\n", len(booters))

	first, atTakedown, last := study.PopulationGrowth()
	fmt.Fprintf(out, "booter domain population: %d (Jan 2018) -> %d (Dec 2018) -> %d (May 2019)\n",
		first, atTakedown, last)

	fmt.Fprintln(out, "\n== Figure 3: booter domains in the Alexa Top 1M by month ==")
	rows := study.Figure3()
	perMonth := map[time.Time][2]int{} // [all, seized]
	for _, row := range rows {
		c := perMonth[row.Month]
		c[0]++
		if row.Seized {
			c[1]++
		}
		perMonth[row.Month] = c
	}
	month := core.DomainStudyStart
	var chart textplot.BarChart
	chart.Width = 50
	for !month.After(core.DomainStudyEnd) {
		m := time.Date(month.Year(), month.Month(), 1, 0, 0, 0, 0, time.UTC)
		c := perMonth[m]
		chart.Add(fmt.Sprintf("%s (%d seized)", m.Format("2006-01"), c[1]), float64(c[0]))
		month = month.AddDate(0, 1, 0)
	}
	fmt.Fprint(out, chart.Render())

	fmt.Fprintln(out, "\n== Booter domains activated within a week of the takedown ==")
	for _, d := range study.SuccessorDomains() {
		successor := ""
		if d.SuccessorOf != "" {
			successor = fmt.Sprintf(" (successor of seized %s)", d.SuccessorOf)
		}
		fmt.Fprintf(out, "%s activated %s, registered %s%s\n",
			d.Name, d.Activated.Format("2006-01-02"), d.Registered.Format("2006-01-02"), successor)
	}

	return certLandscape(out, booters, seed)
}

// certLandscape reproduces the TLS-certificate view of the booter
// ecosystem (Kuhnert et al.): booter sites cluster on free ACME
// certificates, CDN fronting, and self-signed certificates.
func certLandscape(out io.Writer, booters []string, seed uint64) error {
	fmt.Fprintln(out, "\n== TLS certificates of booter websites ==")
	r := netutil.NewRand(seed).Fork("certs")
	notBefore := core.TakedownDate.AddDate(0, -2, 0)
	var snaps []*webobs.Snapshot
	for _, domain := range booters {
		profile := webobs.CertFreeACME
		switch u := r.Float64(); {
		case u < 0.20:
			profile = webobs.CertCDNFronted
		case u < 0.38:
			profile = webobs.CertSelfSigned
		case u < 0.41:
			profile = webobs.CertCommercial
		}
		cert, _, err := webobs.GenerateCert(domain, profile, notBefore)
		if err != nil {
			return err
		}
		snaps = append(snaps, &webobs.Snapshot{Domain: domain, Cert: cert})
	}
	stats := webobs.AnalyzeCerts(snaps)
	var chart textplot.BarChart
	issuers := make([]string, 0, len(stats.ByIssuer))
	for issuer := range stats.ByIssuer {
		issuers = append(issuers, issuer)
	}
	sort.Slice(issuers, func(i, j int) bool { return stats.ByIssuer[issuers[i]] > stats.ByIssuer[issuers[j]] })
	shown := 0
	selfSignedCount := 0
	for _, issuer := range issuers {
		// Self-signed certs each have a unique issuer (the domain);
		// aggregate them into one row.
		if stats.ByIssuer[issuer] == 1 && shown >= 3 {
			selfSignedCount += stats.ByIssuer[issuer]
			continue
		}
		chart.Add(issuer, float64(stats.ByIssuer[issuer]))
		shown++
	}
	if selfSignedCount > 0 {
		chart.Add("(self-signed, per-domain issuers)", float64(selfSignedCount))
	}
	fmt.Fprint(out, chart.Render())
	fmt.Fprintf(out, "self-signed share: %.0f%%, short-lived (<=90d): %d/%d\n",
		stats.SelfSignedShare()*100, stats.ShortLived, stats.Total)
	return nil
}
