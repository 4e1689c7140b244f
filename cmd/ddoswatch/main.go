// Command ddoswatch runs the Section 4 landscape analysis: it streams
// the synthetic inter-domain traffic of the three vantage points through
// the NTP amplification classifier and prints the data behind Figures
// 2(a), 2(b), and 2(c).
//
// By default it generates the -seed/-scale/-days scenario into a
// temporary flowstore archive, replays it and removes it on exit. With
// -store.dir it replays an archive written by flowgen -out instead —
// same results, since the classifier is order-insensitive and the
// archive codec is lossless; -store.dir adds a "replaying" header line.
//
// With -incident it instead reads a flight-recorder dump written by
// the collector daemon (-incident.dir) and reconstructs each attack's
// lifecycle timeline — detection latency, time to mitigate,
// suppression ratio — from the recorded events, offline.
//
// With -federate it opens a multi-vantage federation manifest
// (vantages.json, written by flowgen -federate) and reports the
// federated query plane's per-vantage accounting; -correlate
// additionally joins attacks across vantages and prints each one's
// seen-at/missing-at split — the paper's IXP-vs-ISP disagreement as a
// query.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"booterscope/internal/core"
	"booterscope/internal/flow"
	"booterscope/internal/flowstore"
	"booterscope/internal/pipe"
	"booterscope/internal/telemetry"
	"booterscope/internal/telemetry/debugserver"
	"booterscope/internal/telemetry/eventlog"
	"booterscope/internal/textplot"
	"booterscope/internal/trafficgen"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command with its arguments and output streams passed in,
// so a test can drive it in process; it returns the exit code: 0 on
// success, 1 when a mode fails, 2 on a bad flag.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ddoswatch", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		seed      = fs.Uint64("seed", 1, "random seed")
		scale     = fs.Float64("scale", 0.5, "traffic scale factor")
		days      = fs.Int("days", 30, "days of traffic to analyze")
		storeDir  = fs.String("store.dir", "", "replay from a flowstore archive (flowgen -out) instead of generating")
		par       = fs.Int("parallelism", 0, "replay workers: 0 = NumCPU, 1 = serial (results identical)")
		incident  = fs.String("incident", "", "read a collector incident dump (.bsevt) and print attack timelines instead of running the landscape analysis")
		federate  = fs.String("federate", "", "open a federation manifest (vantages.json) and query the multi-vantage plane instead of running the landscape analysis")
		correlate = fs.Bool("correlate", false, "with -federate: join attacks across vantages and report seen-at/missing-at disagreement")
	)
	debugAddr := debugserver.AddrFlag(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	var err error
	switch {
	case *incident != "":
		err = readIncident(stdout, *incident)
	case *federate != "":
		err = runFederation(stdout, *federate, *correlate, *debugAddr)
	case *correlate:
		err = errors.New("-correlate requires -federate")
	default:
		opts := core.Options{Seed: *seed, Scale: *scale, Days: *days, Parallelism: *par}
		err = landscape(stdout, opts, *storeDir, *debugAddr)
	}
	if err != nil {
		fmt.Fprintf(stderr, "ddoswatch: %v\n", err)
		return 1
	}
	return 0
}

// landscape opens the archive (storeDir, or one generated from opts),
// computes Figures 2(a)-(c) from it and prints them.
func landscape(out io.Writer, opts core.Options, storeDir, debugAddr string) error {
	reg := telemetry.NewRegistry()
	flow.RegisterTelemetry(reg)
	flowstore.RegisterTelemetry(reg)
	pipe.RegisterTelemetry(reg)
	srv, err := debugserver.Start(debugAddr, reg)
	if err != nil {
		return err
	}
	if srv != nil {
		defer srv.Close()
		fmt.Fprintf(out, "debug surface on http://%s/ (metrics, pprof)\n", srv.Addr())
	}

	var replay *core.ReplayStudy
	if storeDir != "" {
		replay, err = core.OpenReplay(storeDir)
	} else {
		replay, err = core.GenerateReplay(opts)
	}
	if err != nil {
		return err
	}
	defer replay.Close()
	replay.Parallelism = opts.Parallelism
	if storeDir != "" {
		fmt.Fprintf(out, "replaying %d-day archive %s\n", replay.Window().Days, storeDir)
	}
	if replay.Store(trafficgen.KindIXP) != nil {
		dist, err := replay.Figure2a()
		if err != nil {
			return err
		}
		fig2a(out, dist)
	} else {
		fmt.Fprintln(out, "archive has no IXP store; skipping Figure 2(a)")
	}
	vantages, err := replay.AllVantages()
	if err != nil {
		return err
	}
	fig2bc(out, vantages)
	return nil
}

// readIncident loads one flight-recorder dump and prints the attack
// lifecycle timelines it contains — the offline counterpart of the
// collector's live /attacks endpoint.
func readIncident(out io.Writer, path string) error {
	d, err := eventlog.LoadDump(path)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "incident dump %s\n", path)
	fmt.Fprintf(out, "  trigger: %s at %s\n", d.Reason,
		time.Unix(0, d.WallNanos).UTC().Format(time.RFC3339Nano))
	fmt.Fprintf(out, "  %d events in ring\n", len(d.Events))
	tls := eventlog.BuildTimelines(d.Events)
	if len(tls) == 0 {
		fmt.Fprintln(out, "  no attack lifecycles recorded")
		return nil
	}
	for _, tl := range tls {
		fmt.Fprintf(out, "\nattack %d  victim %s\n", tl.AttackID, tl.Victim)
		if tl.OpenedWallNanos != 0 {
			fmt.Fprintf(out, "  opened    %s\n",
				time.Unix(0, tl.OpenedWallNanos).UTC().Format(time.RFC3339Nano))
		}
		transitions := []struct {
			name string
			mono int64
		}{
			{"threshold crossed", tl.ThresholdMonoNanos},
			{"alert raised", tl.AlertMonoNanos},
			{"flowspec announced", tl.AnnouncedMonoNanos},
			{"suppression observed", tl.SuppressionMonoNanos},
			{"flowspec withdrawn", tl.WithdrawnMonoNanos},
			{"evicted", tl.EvictedMonoNanos},
		}
		for _, tr := range transitions {
			if tr.mono != 0 {
				fmt.Fprintf(out, "  %-20s +%.3fs\n", tr.name,
					float64(tr.mono-tl.OpenedMonoNanos)/1e9)
			}
		}
		if tl.DetectionLatencySeconds > 0 {
			fmt.Fprintf(out, "  detection latency: %.3fs\n", tl.DetectionLatencySeconds)
		}
		if tl.TimeToMitigateSeconds > 0 {
			fmt.Fprintf(out, "  time to mitigate:  %.3fs\n", tl.TimeToMitigateSeconds)
		}
		if tl.AlertGbps > 0 {
			fmt.Fprintf(out, "  alert: %.2f Gbps from %d sources\n", tl.AlertGbps, tl.AlertSources)
		}
		if tl.SuppressedRecords > 0 {
			fmt.Fprintf(out, "  suppressed: %d records, %d bytes (ratio %.3f)\n",
				tl.SuppressedRecords, tl.SuppressedBytes, tl.SuppressionRatio)
		}
		fmt.Fprintf(out, "  %d events in trace\n", len(tl.Events))
	}
	return nil
}

func fig2a(out io.Writer, dist *core.PacketSizeDistribution) {
	fmt.Fprintln(out, "== Figure 2(a): CDF/PDF of NTP packet sizes at the IXP ==")
	fmt.Fprintf(out, "fraction of NTP packets below 200 bytes: %.1f%% (paper: 54%%)\n", dist.FractionBelow200*100)
	pdf := dist.Histogram.PDF()
	centers := make([]float64, len(pdf))
	for i := range pdf {
		centers[i] = dist.Histogram.BinCenter(i)
	}
	fmt.Fprint(out, textplot.Histogram{Centers: centers, Fractions: pdf}.Render())
	fmt.Fprintln(out)
}

func fig2bc(out io.Writer, vantages []*core.VantageVictims) {
	fmt.Fprintln(out, "== Figures 2(b)/(c): NTP amplification victims per vantage point ==")
	for _, v := range vantages {
		fmt.Fprintf(out, "\n-- %v --\n", v.Vantage)
		fmt.Fprintf(out, "destinations receiving amplified NTP: %d\n", len(v.Victims))
		fmt.Fprintf(out, "max observed per-victim rate: %.1f Gbps\n", v.MaxGbps())
		fmt.Fprintf(out, "conservative filter: %d victims (-%.1f%%); rate rule alone -%.1f%%, sources rule alone -%.1f%%\n",
			v.Filter.Conservative, v.Filter.ReductionBoth()*100,
			v.Filter.ReductionRate()*100, v.Filter.ReductionSources()*100)

		fmt.Fprintln(out, "CDF of max sources per destination:")
		fmt.Fprint(out, textplot.CDF{At: v.SourcesCDF.At, Xs: []float64{1, 5, 10, 100, 1000}, Label: "  srcs"}.Render())
		fmt.Fprintln(out, "CDF of max Gbps per destination:")
		fmt.Fprint(out, textplot.CDF{At: v.RateCDF.At, Xs: []float64{0.01, 0.1, 1, 10, 100}, Label: "  Gbps"}.Render())

		fmt.Fprintln(out, "top victims (Figure 2(b) upper tail):")
		for i, vic := range v.Victims {
			if i >= 5 {
				break
			}
			fmt.Fprintf(out, "  %-18s %8.1f Gbps  %6d max srcs  %6d total srcs\n",
				vic.Addr, vic.MaxGbps, vic.MaxSources, vic.TotalSources)
		}
	}
}
