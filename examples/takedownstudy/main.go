// Takedownstudy: the full Section 5 pipeline as a library consumer would
// run it — measure the FBI seizure's effect on trigger traffic, victim
// traffic, and the booter website population, then print the paper's
// conclusion check.
package main

import (
	"fmt"
	"log"

	"booterscope/internal/core"
	"booterscope/internal/takedown"
	"booterscope/internal/trafficgen"
)

func main() {
	log.SetFlags(0)

	opts := core.Options{Seed: 9, Scale: 0.3}

	// Data-plane: Figure 4 (to reflectors) and Figure 5 (to victims),
	// replayed from a generated archive of the two vantages they use.
	// The archive is closed, and so removed, before any log.Fatal.
	traffic, err := core.GenerateReplay(opts, trafficgen.KindIXP, trafficgen.KindTier2)
	if err != nil {
		log.Fatal(err)
	}
	panels, err := traffic.Figure4(trafficgen.KindTier2)
	var fig5 *takedown.Figure5Result
	if err == nil {
		fig5, err = traffic.Figure5(trafficgen.KindIXP)
	}
	traffic.Close()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("to-reflector traffic at the tier-2 ISP after the seizure:")
	reflectorDropped := true
	for _, p := range panels {
		fmt.Printf("  %-10v red30 %6.1f%%  significant: %t\n",
			p.Vector, p.Metrics.WT30.Reduction*100, p.Metrics.WT30.Significant)
		if !p.Metrics.WT30.Significant {
			reflectorDropped = false
		}
	}

	fmt.Printf("\nsystems under NTP attack (IXP): wt30 significant: %t, wt40 significant: %t\n",
		fig5.Metrics.WT30.Significant, fig5.Metrics.WT40.Significant)

	// Control-plane: Figure 3 and the successor domain.
	domains := core.NewDomainStudy(opts)
	first, atTakedown, last := domains.PopulationGrowth()
	fmt.Printf("\nbooter domain population: %d -> %d (takedown month) -> %d (end)\n",
		first, atTakedown, last)
	for _, d := range domains.SuccessorDomains() {
		if d.SuccessorOf != "" {
			fmt.Printf("booter re-emerged: %s (%s seized) active %s\n",
				d.Name, d.SuccessorOf, d.Activated.Format("2006-01-02"))
		}
	}

	// The paper's conclusion, checked against this run.
	fmt.Println("\nconclusion:")
	victimUnchanged := !fig5.Metrics.WT30.Significant && !fig5.Metrics.WT40.Significant
	if reflectorDropped && victimUnchanged && last > atTakedown {
		fmt.Println("  seizing booter front-ends reduced amplification trigger traffic,")
		fmt.Println("  but victims saw no relief and the booter ecosystem kept growing —")
		fmt.Println("  matching the paper's findings.")
	} else {
		fmt.Println("  results diverge from the paper; inspect the panels above.")
	}
}
