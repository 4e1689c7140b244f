// Command selfattack runs the Section 3 self-attack experiments: it
// purchases attacks from the four modeled booter services, launches them
// against the measurement AS at the simulated IXP, and prints Table 1
// and the data behind Figures 1(a), 1(b), and 1(c).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"booterscope/internal/amplify"
	"booterscope/internal/bgp"
	"booterscope/internal/booter"
	"booterscope/internal/core"
	"booterscope/internal/flow"
	"booterscope/internal/ixp"
	"booterscope/internal/observatory"
	"booterscope/internal/telemetry"
	"booterscope/internal/telemetry/debugserver"
	"booterscope/internal/textplot"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command with its arguments and output streams passed in,
// so a test can drive it in process; it returns the exit code: 0 on
// success, 1 when an experiment fails, 2 on a bad flag.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("selfattack", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		seed     = fs.Uint64("seed", 1, "random seed (results are deterministic per seed)")
		duration = fs.Duration("duration", 60*time.Second, "duration of each non-VIP attack")
		pcapOut  = fs.String("pcap", "", "write a pcap of sampled attack packets from one extra booter A NTP run")
	)
	debugAddr := debugserver.AddrFlag(fs)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if err := experiments(stdout, *seed, *duration, *pcapOut, *debugAddr); err != nil {
		fmt.Fprintf(stderr, "selfattack: %v\n", err)
		return 1
	}
	return 0
}

// experiments runs the self-attacks and prints Table 1 and Figure 1.
func experiments(out io.Writer, seed uint64, duration time.Duration, pcapOut, debugAddr string) error {
	// A registry per run, not the process-wide one: run may be called
	// more than once in a process.
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
		fmt.Fprintf(out, "debug surface on http://%s/ (metrics, pprof)\n", srv.Addr())
	}

	study, err := core.NewSelfAttackStudy(core.Options{Seed: seed})
	if err != nil {
		return err
	}

	printTable1(out, study)
	if err := fig1a(out, study, duration); err != nil {
		return err
	}
	if err := fig1b(out, study); err != nil {
		return err
	}
	if err := fig1c(out, study); err != nil {
		return err
	}
	if pcapOut != "" {
		return writeCapture(out, study, pcapOut)
	}
	return nil
}

// writeCapture runs one extra attack with packet capture enabled.
func writeCapture(out io.Writer, study *core.SelfAttackStudy, path string) error {
	svc, err := booter.ServiceByName("A")
	if err != nil {
		return err
	}
	atk, err := study.Engine.Launch(booter.Order{
		Service:  svc,
		Vector:   amplify.NTP,
		Target:   study.Obs.NextTargetIP(),
		Duration: 10 * time.Second,
	})
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := study.Obs.RunAttack(atk, core.SelfAttackStart, observatory.CaptureOptions{
		Writer: f, PacketsPerSecond: 32,
	}); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(out, "\nwrote %s: sampled monlist response packets (486/490-byte, UDP/123)\n", path)
	return nil
}

func printTable1(out io.Writer, study *core.SelfAttackStudy) {
	fmt.Fprintln(out, "== Table 1: booters used to attack our measurement AS ==")
	fmt.Fprintf(out, "%-8s %-7s %-30s %10s %10s\n", "Booter", "Seized", "Vectors", "non-VIP $", "VIP $")
	for _, row := range study.Table1() {
		seized := ""
		if row.Seized {
			seized = "yes"
		}
		var vecs []string
		for _, v := range row.Vectors {
			vecs = append(vecs, v.String())
		}
		fmt.Fprintf(out, "%-8s %-7s %-30s %10.2f %10.2f\n",
			row.Booter, seized, strings.Join(vecs, ","), row.PriceNonVIP, row.PriceVIP)
	}
	fmt.Fprintln(out)
}

func fig1a(out io.Writer, study *core.SelfAttackStudy, duration time.Duration) error {
	fmt.Fprintln(out, "== Figure 1(a): non-VIP self-attacks ==")
	results, err := study.RunNonVIPAttacks(duration)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%-32s %10s %10s %8s %8s %10s\n",
		"attack", "mean Mbps", "peak Mbps", "refl", "peers", "transit %")
	var reports []*observatory.Report
	for _, res := range results {
		r := res.Report
		fmt.Fprintf(out, "%-32s %10.0f %10.0f %8d %8d %10.1f\n",
			res.Label, r.MeanMbps(), r.PeakMbps(), r.MaxReflectors(), r.MaxPeers(), r.TransitShare*100)
		reports = append(reports, r)
	}
	points := observatory.Figure1aData(reports)
	fmt.Fprintf(out, "(%d per-second scatter points; use -v for the full dump)\n\n", len(points))
	return nil
}

func fig1b(out io.Writer, study *core.SelfAttackStudy) error {
	fmt.Fprintln(out, "== Figure 1(b): VIP attacks, 5 minutes each ==")
	results, err := study.RunVIPAttacks()
	if err != nil {
		return err
	}
	for _, res := range results {
		r := res.Report
		fmt.Fprintf(out, "%-24s peak %6.2f Gbps  mean %6.2f Gbps  transit %5.1f%%  BGP flaps %d\n",
			res.Label, r.PeakMbps()/1000, r.MeanMbps()/1000, r.TransitShare*100, r.Flaps)
		values := make([]float64, len(r.Samples))
		for i, s := range r.Samples {
			values[i] = s.Mbps
		}
		fmt.Fprintf(out, "  %s\n", textplot.Sparkline(textplot.Downsample(values, 75)))
	}
	fmt.Fprintln(out)
	return nil
}

func fig1c(out io.Writer, study *core.SelfAttackStudy) error {
	fmt.Fprintln(out, "== Figure 1(c): overlap of NTP reflectors over time ==")
	res, err := study.RunReflectorOverlap()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%d self-attacks, %d unique reflectors in total\n", len(res.Labels), res.TotalUniqueReflectors)
	w := new(strings.Builder)
	fmt.Fprintf(w, "%-18s", "")
	for i := range res.Labels {
		fmt.Fprintf(w, " %4d", i)
	}
	fmt.Fprintln(w)
	for i, label := range res.Labels {
		fmt.Fprintf(w, "%-18s", label)
		for j := range res.Labels {
			fmt.Fprintf(w, " %4.2f", res.Matrix[i][j])
		}
		fmt.Fprintln(w)
	}
	_, err = fmt.Fprint(out, w.String())
	return err
}
