// Command economy simulates the booter market around the FBI takedown —
// the paper's closing future-work question about law-enforcement effects
// on booter financing — and prints subscriber, revenue, and attack-demand
// series.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"booterscope/internal/core"
	"booterscope/internal/economy"
	"booterscope/internal/telemetry"
	"booterscope/internal/telemetry/debugserver"
	"booterscope/internal/textplot"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command with its arguments and output streams passed in,
// so a test can drive it in process; it returns the exit code: 0 on
// success, 1 when the simulation fails, 2 on a bad flag.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("economy", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		seed = fs.Uint64("seed", 1, "random seed")
		days = fs.Int("days", 120, "simulated days (takedown sits mid-window)")
	)
	debugAddr := debugserver.AddrFlag(fs)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if err := simulate(stdout, *seed, *days, *debugAddr); err != nil {
		fmt.Fprintf(stderr, "economy: %v\n", err)
		return 1
	}
	return 0
}

// simulate runs the market over days around the takedown and prints
// its series.
func simulate(out io.Writer, seed uint64, days int, debugAddr string) error {
	srv, err := debugserver.Start(debugAddr, telemetry.Default())
	if err != nil {
		return err
	}
	if srv != nil {
		defer srv.Close()
		fmt.Fprintf(out, "debug surface on http://%s/ (metrics, pprof)\n", srv.Addr())
	}

	start := core.TakedownDate.AddDate(0, 0, -days/2)
	market := economy.NewMarket(economy.Config{
		Start:    start,
		Days:     days,
		Takedown: core.TakedownDate,
		Seed:     seed,
	})
	stats := market.Run()

	fmt.Fprintf(out, "booter market, %d days around the %s takedown\n\n",
		days, core.TakedownDate.Format("2006-01-02"))

	series := func(pick func(economy.DayStats) float64) []float64 {
		vals := make([]float64, len(stats))
		for i, s := range stats {
			vals[i] = pick(s)
		}
		return vals
	}
	eventIdx := -1
	for i, s := range stats {
		if !s.Day.Before(core.TakedownDate) {
			eventIdx = i
			break
		}
	}

	fmt.Fprintln(out, "daily revenue, seized booters (A+B):")
	fmt.Fprintln(out, textplot.TimeSeries{Values: series(func(d economy.DayStats) float64 {
		return d.RevenueByService["A"] + d.RevenueByService["B"]
	}), EventIndex: eventIdx, Width: 72}.Render())

	fmt.Fprintln(out, "\ndaily revenue, surviving booters (C+D):")
	fmt.Fprintln(out, textplot.TimeSeries{Values: series(func(d economy.DayStats) float64 {
		return d.RevenueByService["C"] + d.RevenueByService["D"]
	}), EventIndex: eventIdx, Width: 72}.Render())

	fmt.Fprintln(out, "\naggregate attack demand (attacks/day):")
	fmt.Fprintln(out, textplot.TimeSeries{Values: series(func(d economy.DayStats) float64 {
		return d.AttackDemand
	}), EventIndex: eventIdx, Width: 72}.Render())

	impact, err := economy.Impact(stats, core.TakedownDate, 14)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "\n±14-day impact: %v\n", impact)

	last := stats[len(stats)-1]
	fmt.Fprintln(out, "\nsubscribers at end of window:")
	var chart textplot.BarChart
	for _, row := range market.MigrationMatrix(last.Day.Add(24 * time.Hour)) {
		chart.Add("booter "+row.Service, float64(row.Count))
	}
	fmt.Fprint(out, chart.Render())
	return nil
}
