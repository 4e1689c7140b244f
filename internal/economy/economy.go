// Package economy models the booter market around the takedown — the
// paper's closing question: "the need to better study the effects of law
// enforcement on the booter economy, e.g., on infrastructures, financing,
// or involved entities."
//
// The model follows what the measurement literature established about
// booter economics (leaked database studies, payment interventions): a
// growing subscriber base, cheap subscriptions with a premium tier, and
// customers who migrate rather than quit when a front-end disappears. It
// reproduces the study's central tension: seizing 15 domains hurts the
// seized operators' revenue, but aggregate attack demand — what victims
// experience — barely moves, because subscribers migrate to surviving
// booters and to re-emerged domains within days.
package economy

import (
	"fmt"
	"sort"
	"time"

	"booterscope/internal/booter"
	"booterscope/internal/netutil"
)

// subscriber is one booter customer.
type subscriber struct {
	ID      int
	Joined  time.Time
	Service string // current booter (by name)
	VIP     bool
	// Quit is when the subscriber left the market entirely (zero while
	// active).
	Quit time.Time
	// AttacksPerDay is the subscriber's demand.
	AttacksPerDay float64
}

// active reports whether the subscriber is in the market on a day.
func (s *subscriber) active(day time.Time) bool {
	if day.Before(s.Joined) {
		return false
	}
	return s.Quit.IsZero() || day.Before(s.Quit)
}

// Config parameterizes the market simulation.
type Config struct {
	// Start and Days bound the simulation window.
	Start time.Time
	Days  int
	// Takedown is the seizure date (zero disables it).
	Takedown time.Time
	// Seed drives randomness.
	Seed uint64
	// InitialSubscribers is the market size at Start. Default 2000
	// (webstresser.org alone had 138k registered users; this is a
	// scaled-down market over four booters).
	InitialSubscribers int
	// DailyJoinRate is the mean number of new subscribers per day.
	// Default 12 (a growing market, as the domain population suggests).
	DailyJoinRate float64
	// DailyChurn is each subscriber's daily probability of leaving the
	// market for unrelated reasons. Default 0.004.
	DailyChurn float64
	// MigrateShare is the fraction of a seized booter's subscribers who
	// move to another booter (the rest wait for a re-emergence or
	// quit). Default 0.55.
	MigrateShare float64
	// QuitShare is the fraction who leave the market at the seizure.
	// Default 0.15. The remainder waits for the seized booter to
	// re-emerge under a new domain.
	QuitShare float64
	// VIPShare is the fraction of subscribers on the premium tier.
	// Default 0.06.
	VIPShare float64
}

func (c Config) withDefaults() Config {
	if c.InitialSubscribers == 0 {
		c.InitialSubscribers = 2000
	}
	if c.DailyJoinRate == 0 {
		c.DailyJoinRate = 12
	}
	if c.DailyChurn == 0 {
		c.DailyChurn = 0.004
	}
	if c.MigrateShare == 0 {
		c.MigrateShare = 0.55
	}
	if c.QuitShare == 0 {
		c.QuitShare = 0.15
	}
	if c.VIPShare == 0 {
		c.VIPShare = 0.06
	}
	return c
}

// DayStats is one day of market state.
type DayStats struct {
	Day time.Time
	// SubscribersByService counts active subscribers per booter.
	SubscribersByService map[string]int
	// RevenueByService is the day's subscription revenue (monthly price
	// / 30) per booter, in USD.
	RevenueByService map[string]float64
	// AttackDemand is the aggregate attacks/day across the market —
	// the quantity that maps to victim-facing traffic.
	AttackDemand float64
}

// TotalSubscribers sums the per-service counts.
//
//bsvet:allow deadcode oracle: TestMarketDeterministic and TestMarketGrowsBeforeTakedown sum the market with it
func (d *DayStats) TotalSubscribers() int {
	total := 0
	for _, n := range d.SubscribersByService {
		total += n
	}
	return total
}

// TotalRevenue sums the per-service revenue. Summation follows sorted
// service names so the floating-point total is reproducible.
//
//bsvet:allow deadcode oracle: TestMarketDeterministic sums the market with it
func (d *DayStats) TotalRevenue() float64 {
	names := make([]string, 0, len(d.RevenueByService))
	for name := range d.RevenueByService {
		names = append(names, name)
	}
	sort.Strings(names)
	var total float64
	for _, name := range names {
		total += d.RevenueByService[name]
	}
	return total
}

// Market simulates the booter economy.
type Market struct {
	cfg      Config
	services []*booter.Service
	subs     []*subscriber
	rand     *netutil.Rand
	// reemergence maps a seized booter name to the day its successor
	// domain came up (booter A: takedown + 3 days).
	reemergence map[string]time.Time
}

// NewMarket builds the initial market over the Table 1 booters.
func NewMarket(cfg Config) *Market {
	cfg = cfg.withDefaults()
	r := netutil.NewRand(cfg.Seed).Fork("economy")
	m := &Market{
		cfg:         cfg,
		services:    booter.Catalog(),
		rand:        r,
		reemergence: make(map[string]time.Time),
	}
	// Reset historical seizure state; the simulation applies it on the
	// takedown day.
	for _, svc := range m.services {
		svc.SeizedByFBI = false
	}
	for i := 0; i < cfg.InitialSubscribers; i++ {
		m.subs = append(m.subs, m.newSubscriber(i, cfg.Start))
	}
	return m
}

// newSubscriber draws a subscriber with a popularity-weighted booter
// choice (A and B are the popular, later-seized services).
func (m *Market) newSubscriber(id int, joined time.Time) *subscriber {
	weights := []float64{0.35, 0.30, 0.20, 0.15} // A, B, C, D
	u := m.rand.Float64()
	idx := 0
	for cum := 0.0; idx < len(weights)-1; idx++ {
		cum += weights[idx]
		if u < cum {
			break
		}
	}
	return &subscriber{
		ID:            id,
		Joined:        joined,
		Service:       m.services[idx].Name,
		VIP:           m.rand.Float64() < m.cfg.VIPShare,
		AttacksPerDay: 0.2 + m.rand.Float64()*1.5,
	}
}

// service returns the catalog entry by name.
func (m *Market) service(name string) *booter.Service {
	for _, svc := range m.services {
		if svc.Name == name {
			return svc
		}
	}
	return nil
}

// Run simulates the window and returns per-day statistics.
func (m *Market) Run() []DayStats {
	out := make([]DayStats, 0, m.cfg.Days)
	nextID := len(m.subs)
	for d := 0; d < m.cfg.Days; d++ {
		day := m.cfg.Start.AddDate(0, 0, d)

		// Takedown day: seize A and B, schedule A's re-emergence,
		// redistribute their subscribers.
		if !m.cfg.Takedown.IsZero() && day.Equal(m.cfg.Takedown.Truncate(24*time.Hour)) {
			m.applyTakedown(day)
		}
		// Re-emergence: waiting subscribers return to the revived
		// service.
		for name, when := range m.reemergence {
			if day.Equal(when) {
				m.reactivate(name)
			}
		}

		// Organic growth and churn.
		joins := int(m.cfg.DailyJoinRate + m.rand.Normal(0, 2))
		for j := 0; j < joins; j++ {
			m.subs = append(m.subs, m.newSubscriber(nextID, day))
			nextID++
		}
		for _, s := range m.subs {
			if s.active(day) && m.rand.Float64() < m.cfg.DailyChurn {
				s.Quit = day
			}
		}

		out = append(out, m.snapshot(day))
	}
	return out
}

// applyTakedown seizes the FBI-targeted services and redistributes
// their subscribers: MigrateShare move immediately, QuitShare leave,
// the rest park until a re-emergence (or quit if none comes).
func (m *Market) applyTakedown(day time.Time) {
	var survivors []*booter.Service
	seized := make(map[string]*booter.Service)
	for _, svc := range booter.Catalog() { // catalog ground truth: A and B get seized
		if svc.SeizedByFBI {
			target := m.service(svc.Name)
			target.Seize()
			seized[svc.Name] = target
			if target.BackupDomain != "" {
				m.reemergence[target.Name] = day.AddDate(0, 0, 3)
			}
		}
	}
	for _, svc := range m.services {
		if !svc.SeizedByFBI {
			survivors = append(survivors, svc)
		}
	}
	for _, s := range m.subs {
		if !s.active(day) {
			continue
		}
		svc, wasSeized := seized[s.Service]
		if !wasSeized {
			continue
		}
		switch u := m.rand.Float64(); {
		case u < m.cfg.MigrateShare:
			s.Service = survivors[m.rand.IntN(len(survivors))].Name
		case u < m.cfg.MigrateShare+m.cfg.QuitShare:
			s.Quit = day
		default:
			// Parked: waiting for the seized service to come back. If
			// it never re-emerges they quietly quit after two weeks.
			if _, comesBack := m.reemergence[svc.Name]; !comesBack {
				s.Quit = day.AddDate(0, 0, 14)
			}
			// Subscribers of the re-emerging booter keep their
			// accounts; the study found its credentials still worked.
		}
	}
}

// reactivate marks a seized service as operating again (on its backup
// domain); parked subscribers resume automatically because they never
// quit.
func (m *Market) reactivate(name string) {
	// Nothing to mutate on the service: ActiveDomain() already reports
	// the backup domain after seizure. The market effect is that the
	// service earns revenue again, handled in snapshot.
}

// operating reports whether a service can take orders on a day.
func (m *Market) operating(svc *booter.Service, day time.Time) bool {
	if !svc.SeizedByFBI {
		return true
	}
	when, ok := m.reemergence[svc.Name]
	return ok && !day.Before(when)
}

// snapshot computes one day's statistics.
func (m *Market) snapshot(day time.Time) DayStats {
	stats := DayStats{
		Day:                  day,
		SubscribersByService: make(map[string]int),
		RevenueByService:     make(map[string]float64),
	}
	for _, svc := range m.services {
		stats.SubscribersByService[svc.Name] = 0
		stats.RevenueByService[svc.Name] = 0
	}
	for _, s := range m.subs {
		if !s.active(day) {
			continue
		}
		svc := m.service(s.Service)
		if svc == nil || !m.operating(svc, day) {
			continue // parked subscriber of a seized service
		}
		stats.SubscribersByService[svc.Name]++
		price := svc.PriceNonVIP
		if s.VIP {
			price = svc.PriceVIP
		}
		stats.RevenueByService[svc.Name] += price / 30
		stats.AttackDemand += s.AttacksPerDay
	}
	return stats
}

// TakedownImpact condenses a run into the before/after comparison.
type TakedownImpact struct {
	// SeizedRevenueBefore/After average the seized services' daily
	// revenue over the 14 days before and after the takedown.
	SeizedRevenueBefore float64
	SeizedRevenueAfter  float64
	// SurvivorRevenueBefore/After do the same for untouched services.
	SurvivorRevenueBefore float64
	SurvivorRevenueAfter  float64
	// DemandBefore/After average the aggregate attack demand.
	DemandBefore float64
	DemandAfter  float64
}

// SeizedRevenueRatio is after/before for the seized services.
func (t TakedownImpact) SeizedRevenueRatio() float64 {
	if t.SeizedRevenueBefore == 0 {
		return 0
	}
	return t.SeizedRevenueAfter / t.SeizedRevenueBefore
}

// survivorRevenueRatio is after/before for the surviving services.
func (t TakedownImpact) survivorRevenueRatio() float64 {
	if t.SurvivorRevenueBefore == 0 {
		return 0
	}
	return t.SurvivorRevenueAfter / t.SurvivorRevenueBefore
}

// DemandRatio is after/before aggregate attack demand.
func (t TakedownImpact) DemandRatio() float64 {
	if t.DemandBefore == 0 {
		return 0
	}
	return t.DemandAfter / t.DemandBefore
}

// String summarizes the impact.
func (t TakedownImpact) String() string {
	return fmt.Sprintf("seized revenue %.0f%%, survivor revenue %.0f%%, attack demand %.0f%% of pre-takedown",
		t.SeizedRevenueRatio()*100, t.survivorRevenueRatio()*100, t.DemandRatio()*100)
}

// Impact computes the before/after comparison from a finished run. The
// seized set is taken from the catalog's ground truth.
func Impact(stats []DayStats, takedown time.Time, windowDays int) (TakedownImpact, error) {
	if windowDays <= 0 {
		windowDays = 14
	}
	seized := make(map[string]bool)
	for _, svc := range booter.Catalog() {
		if svc.SeizedByFBI {
			seized[svc.Name] = true
		}
	}
	var impact TakedownImpact
	var nBefore, nAfter int
	for _, day := range stats {
		diff := int(day.Day.Sub(takedown.Truncate(24*time.Hour)).Hours() / 24)
		var seizedRev, survivorRev float64
		for name, rev := range day.RevenueByService {
			if seized[name] {
				seizedRev += rev
			} else {
				survivorRev += rev
			}
		}
		switch {
		case diff >= -windowDays && diff < 0:
			impact.SeizedRevenueBefore += seizedRev
			impact.SurvivorRevenueBefore += survivorRev
			impact.DemandBefore += day.AttackDemand
			nBefore++
		case diff >= 0 && diff < windowDays:
			impact.SeizedRevenueAfter += seizedRev
			impact.SurvivorRevenueAfter += survivorRev
			impact.DemandAfter += day.AttackDemand
			nAfter++
		}
	}
	if nBefore == 0 || nAfter == 0 {
		return TakedownImpact{}, fmt.Errorf("economy: takedown windows outside the simulated range")
	}
	impact.SeizedRevenueBefore /= float64(nBefore)
	impact.SurvivorRevenueBefore /= float64(nBefore)
	impact.DemandBefore /= float64(nBefore)
	impact.SeizedRevenueAfter /= float64(nAfter)
	impact.SurvivorRevenueAfter /= float64(nAfter)
	impact.DemandAfter /= float64(nAfter)
	return impact, nil
}

// MigrationMatrix counts, for subscribers active at the end of a run,
// how many sit with each booter — sorted by name for stable output.
func (m *Market) MigrationMatrix(day time.Time) []struct {
	Service string
	Count   int
} {
	counts := make(map[string]int)
	for _, s := range m.subs {
		if s.active(day) {
			counts[s.Service]++
		}
	}
	names := make([]string, 0, len(counts))
	for n := range counts {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]struct {
		Service string
		Count   int
	}, len(names))
	for i, n := range names {
		out[i] = struct {
			Service string
			Count   int
		}{n, counts[n]}
	}
	return out
}
