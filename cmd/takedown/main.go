// Command takedown runs the Section 5.2 analysis of the FBI booter
// seizure: daily packet series toward DDoS reflectors with Welch tests
// (Figure 4) and hourly counts of systems under NTP attack (Figure 5).
//
// By default it generates the -seed/-scale/-days scenario into a
// temporary flowstore archive, replays it and removes it on exit. With
// -store.dir it replays an archive written by flowgen -out instead.
// Replay is exact — the analyses are order-insensitive and the archive
// codec is lossless — so both print identical figures for the same
// seed; -store.dir adds a "replaying" header line.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"booterscope/internal/core"
	"booterscope/internal/flow"
	"booterscope/internal/flowstore"
	"booterscope/internal/pipe"
	"booterscope/internal/takedown"
	"booterscope/internal/telemetry"
	"booterscope/internal/telemetry/debugserver"
	"booterscope/internal/textplot"
	"booterscope/internal/trafficgen"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command with its arguments and output streams passed in,
// so a test can drive it in process; it returns the exit code: 0 on
// success, 1 when the analysis fails, 2 on a bad flag.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("takedown", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		seed     = fs.Uint64("seed", 1, "random seed")
		scale    = fs.Float64("scale", 0.5, "traffic scale factor")
		days     = fs.Int("days", 122, "days of traffic (122 spans the seizure ±~60 days)")
		storeDir = fs.String("store.dir", "", "replay from a flowstore archive (flowgen -out) instead of generating")
		par      = fs.Int("parallelism", 0, "replay worker count: 0 = NumCPU, 1 = serial (results identical)")
	)
	debugAddr := debugserver.AddrFlag(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	opts := core.Options{Seed: *seed, Scale: *scale, Days: *days, Parallelism: *par}
	if err := analyze(stdout, opts, *storeDir, *debugAddr); err != nil {
		fmt.Fprintf(stderr, "takedown: %v\n", err)
		return 1
	}
	return 0
}

// analyze opens the archive (storeDir, or one generated from opts),
// computes Figures 4 and 5 from it with one Analyze pass per vantage
// and prints them.
func analyze(out io.Writer, opts core.Options, storeDir, debugAddr string) error {
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
	kinds := replay.Kinds()
	if storeDir != "" {
		fmt.Fprintf(out, "replaying %d-day archive %s (vantages: %s)\n\n",
			replay.Window().Days, storeDir, kindList(kinds))
	}
	event := replay.Event
	fmt.Fprintf(out, "takedown event: %s, %d booter domains seized\n\n",
		event.Date.Format("2006-01-02"), event.SeizedDomains)

	fmt.Fprintln(out, "== Figure 4: daily packets toward DDoS reflectors ==")
	// Figure 5 uses the IXP perspective when present (the paper's), else
	// the first archived vantage.
	var fig5 *takedown.Figure5Result
	for _, k := range kinds {
		a, err := replay.Analyze(k)
		if err != nil {
			return err
		}
		renderFigure4(out, k, a.Figure4, event.Date)
		if fig5 == nil || k == trafficgen.KindIXP {
			fig5 = a.Figure5
		}
	}
	fmt.Fprintf(out, "\n== Figure 5: systems under NTP DDoS attack per hour (%v) ==\n", fig5.Vantage)
	renderFigure5(out, fig5)
	return nil
}

// renderFigure4 prints one vantage's reflector panels.
func renderFigure4(out io.Writer, k trafficgen.Kind, panels []takedown.Figure4Panel, eventDate time.Time) {
	fmt.Fprintf(out, "\n-- %v perspective --\n", k)
	for _, p := range panels {
		fmt.Fprintf(out, "packets %v dst port:\n", p.Vector)
		values := make([]float64, len(p.Daily))
		eventIdx := -1
		for i, pt := range p.Daily {
			values[i] = pt.Value
			if eventIdx < 0 && !pt.Time.Before(eventDate) {
				eventIdx = i
			}
		}
		fmt.Fprintln(out, indent(textplot.TimeSeries{Values: values, EventIndex: eventIdx, Width: 72}.Render()))
		fmt.Fprintf(out, "  wt30 sign. (p=0.05): %t   red30: %.2f%%\n",
			p.Metrics.WT30.Significant, p.Metrics.WT30.Reduction*100)
		fmt.Fprintf(out, "  wt40 sign. (p=0.05): %t   red40: %.2f%%\n",
			p.Metrics.WT40.Significant, p.Metrics.WT40.Reduction*100)
	}
}

// renderFigure5 prints the systems-under-attack series and verdicts.
func renderFigure5(out io.Writer, fig5 *takedown.Figure5Result) {
	maxCount := 0
	hourly := make([]float64, len(fig5.Hourly))
	eventIdx := -1
	for i, hp := range fig5.Hourly {
		hourly[i] = float64(hp.Count)
		if hp.Count > maxCount {
			maxCount = hp.Count
		}
		if eventIdx < 0 && !hp.Hour.Before(takedown.FBITakedown.Date) {
			eventIdx = i
		}
	}
	fmt.Fprintln(out, indent(textplot.TimeSeries{Values: hourly, EventIndex: eventIdx, Width: 72}.Render()))
	fmt.Fprintf(out, "hours with attacks: %d, peak systems under attack in one hour: %d\n",
		len(fig5.Hourly), maxCount)
	fmt.Fprintf(out, "wt30 sign. (p=0.05): %t\n", fig5.Metrics.WT30.Significant)
	fmt.Fprintf(out, "wt40 sign. (p=0.05): %t\n", fig5.Metrics.WT40.Significant)
	if !fig5.Metrics.WT30.Significant && !fig5.Metrics.WT40.Significant {
		fmt.Fprintln(out, "=> no significant reduction in systems attacked (the paper's headline result)")
	}
}

// kindList renders vantage names comma-separated.
func kindList(kinds []trafficgen.Kind) string {
	names := make([]string, len(kinds))
	for i, k := range kinds {
		names[i] = fmt.Sprint(k)
	}
	return strings.Join(names, ", ")
}

// indent prefixes every line with two spaces.
func indent(s string) string {
	lines := strings.Split(s, "\n")
	for i := range lines {
		lines[i] = "  " + lines[i]
	}
	return strings.Join(lines, "\n")
}
