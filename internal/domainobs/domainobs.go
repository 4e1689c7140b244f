// Package domainobs implements the study's DNS and HTTPS observatory: a
// control-plane view of booter websites built from weekly snapshots of
// the .com/.net/.org zones, keyword-based booter identification
// (following Santanna et al.'s booter blacklist methodology), and daily
// Alexa Top 1M rankings.
//
// The synthetic domain universe reproduces the paper's Section 5.1
// observations: 58 booter domains identified by keyword matching, 15 of
// them seized on December 19 2018, the overall booter population growing
// through the measurement period despite the seizure, seized domains
// occasionally re-entering the Top 1M through press coverage, and booter
// A's pre-registered fallback domain entering the Top 1M on December 22
// — three days after the takedown.
package domainobs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"booterscope/internal/netutil"
	"booterscope/internal/stats"
)

// booterKeywords are the substrings used to identify booter websites in
// zone snapshots.
var booterKeywords = []string{"booter", "stresser", "ddos"}

// matchesKeywords reports whether a domain name matches the booter
// keyword search.
func matchesKeywords(domain string) bool {
	d := strings.ToLower(domain)
	for _, kw := range booterKeywords {
		if strings.Contains(d, kw) {
			return true
		}
	}
	return false
}

// Domain is one tracked website.
type Domain struct {
	Name string
	// Registered is the registration date (zone file appearance).
	Registered time.Time
	// Activated is when the website went live; a domain can be
	// registered but parked (booter A's fallback).
	Activated time.Time
	// Seized is the seizure date (zero when never seized).
	Seized time.Time
	// Booter marks actual booter services (ground truth; keyword
	// matching discovers a superset/subset of these).
	Booter bool
	// BaseRank is the site's typical Alexa rank when active.
	BaseRank int
	// SuccessorOf names the seized domain this one replaces, if any.
	SuccessorOf string
}

// activeAt reports whether the site serves content on a day.
func (d *Domain) activeAt(t time.Time) bool {
	if d.Activated.IsZero() || t.Before(d.Activated) {
		return false
	}
	return d.Seized.IsZero() || t.Before(d.Seized)
}

// Config parameterizes the synthetic universe.
type Config struct {
	// Start and End bound the measurement period (the study used
	// January 2018 through May 2019).
	Start time.Time
	End   time.Time
	// Takedown is the seizure date.
	Takedown time.Time
	// BooterDomains is the number of booter domains in the zones at the
	// end of the period (the study identified 58).
	BooterDomains int
	// SeizedDomains is the number seized (15 in the FBI operation).
	SeizedDomains int
	// BenignDomains is the number of non-booter domains in the
	// snapshot universe (stand-in for the ~140M real ones).
	BenignDomains int
	// Seed drives randomness.
	Seed uint64
}

func (c Config) withDefaults() Config {
	if c.BooterDomains == 0 {
		c.BooterDomains = 58
	}
	if c.SeizedDomains == 0 {
		c.SeizedDomains = 15
	}
	if c.BenignDomains == 0 {
		c.BenignDomains = 3000
	}
	return c
}

// Observatory holds the synthetic domain universe and answers
// zone/Alexa queries.
type Observatory struct {
	cfg     Config
	domains []Domain
	rand    *netutil.Rand
}

// NewObservatory builds the universe.
func NewObservatory(cfg Config) *Observatory {
	cfg = cfg.withDefaults()
	r := netutil.NewRand(cfg.Seed).Fork("domainobs")
	o := &Observatory{cfg: cfg, rand: r}

	tlds := []string{"com", "net", "org"}
	prefixes := []string{"quantum-%s", "power-%s", "instant-%s", "%s-panel", "mega-%s", "%s-zone", "super-%s", "dark-%s", "%s-pro", "net-%s"}
	words := []string{"booter", "stresser", "ddos"}
	span := cfg.End.Sub(cfg.Start)

	// Booter domains: registrations spread over the period with a
	// growing trend (more register later).
	for i := 0; i < cfg.BooterDomains; i++ {
		frac := r.Float64()
		frac = math.Sqrt(frac) // skew toward late registration: accelerating growth
		reg := cfg.Start.Add(time.Duration(float64(span) * frac * 0.85))
		name := fmt.Sprintf(prefixes[i%len(prefixes)], words[i%len(words)])
		name = fmt.Sprintf("%s-%d.%s", name, i, tlds[i%len(tlds)])
		d := Domain{
			Name:       name,
			Registered: reg,
			Activated:  reg.Add(time.Duration(1+r.IntN(14)) * 24 * time.Hour),
			Booter:     true,
			BaseRank:   50_000 + r.IntN(900_000),
		}
		// The first SeizedDomains booters get seized at the takedown
		// (they are popular services — good but not top ranks).
		if i < cfg.SeizedDomains {
			d.Seized = cfg.Takedown
			d.BaseRank = 100_000 + r.IntN(500_000)
			// Ensure they were live well before the seizure.
			if !d.Activated.Before(cfg.Takedown.AddDate(0, -6, 0)) {
				d.Activated = cfg.Takedown.AddDate(0, -6, -r.IntN(180))
				d.Registered = d.Activated.AddDate(0, 0, -7)
			}
		}
		o.domains = append(o.domains, d)
	}

	// Booter A's fallback: registered in June 2018, parked until three
	// days after the takedown, then live and immediately ranked.
	seizedName := o.domains[0].Name
	o.domains = append(o.domains, Domain{
		Name:        "quantum-booter-reloaded.net",
		Registered:  time.Date(2018, 6, 15, 0, 0, 0, 0, time.UTC),
		Activated:   cfg.Takedown.AddDate(0, 0, 3),
		Booter:      true,
		BaseRank:    150_000 + r.IntN(200_000),
		SuccessorOf: seizedName,
	})

	// Benign domains, a few of which contain keywords in benign senses
	// (e.g. anti-DDoS vendors) — keyword matching needs manual
	// verification, as the paper notes.
	for i := 0; i < cfg.BenignDomains; i++ {
		name := fmt.Sprintf("site-%04d.%s", i, tlds[i%len(tlds)])
		if i%211 == 0 {
			name = fmt.Sprintf("anti-ddos-protect-%d.com", i)
		}
		reg := cfg.Start.Add(time.Duration(float64(span) * r.Float64() * 0.9))
		o.domains = append(o.domains, Domain{
			Name:       name,
			Registered: reg,
			Activated:  reg,
			BaseRank:   1_000 + r.IntN(5_000_000),
		})
	}
	return o
}

// Domains returns the full universe (ground truth, for tests).
//
//bsvet:allow deadcode oracle: TestUniverseShape and TestSeizedDomainsWereActiveBeforeTakedown check the observatory against its ground truth
func (o *Observatory) Domains() []Domain { return o.domains }

// ZoneSnapshot lists the domains present in the zones at time t
// (registered, not expired; seizure does not remove a domain from the
// zone — the FBI points it at a banner).
func (o *Observatory) ZoneSnapshot(t time.Time) []string {
	var out []string
	for i := range o.domains {
		if !o.domains[i].Registered.After(t) {
			out = append(out, o.domains[i].Name)
		}
	}
	sort.Strings(out)
	return out
}

// IdentifyBooters applies keyword matching to a snapshot and then
// simulates the study's manual verification step, dropping benign
// keyword hits. It returns the verified booter domains.
func (o *Observatory) IdentifyBooters(snapshot []string) []string {
	byName := make(map[string]*Domain, len(o.domains))
	for i := range o.domains {
		byName[o.domains[i].Name] = &o.domains[i]
	}
	var out []string
	for _, name := range snapshot {
		if !matchesKeywords(name) {
			continue
		}
		if d, ok := byName[name]; ok && d.Booter {
			out = append(out, name)
		}
	}
	return out
}

// KeywordHits applies only the keyword filter (before manual
// verification).
func (o *Observatory) KeywordHits(snapshot []string) []string {
	var out []string
	for _, name := range snapshot {
		if matchesKeywords(name) {
			out = append(out, name)
		}
	}
	return out
}

// alexaRank returns the domain's Alexa rank on a day, and whether it is
// in the Top 1M. Active sites fluctuate around their base rank; seized
// sites fall out, except for occasional press-coverage re-entries.
func (o *Observatory) alexaRank(name string, day time.Time) (int, bool) {
	for i := range o.domains {
		d := &o.domains[i]
		if d.Name != name {
			continue
		}
		dr := netutil.NewRand(o.cfg.Seed).Fork(fmt.Sprintf("alexa-%s-%d", name, day.Unix()/86400))
		if d.activeAt(day) {
			rank := int(float64(d.BaseRank) * (0.7 + 0.6*dr.Float64()))
			if rank < 1 {
				rank = 1
			}
			return rank, rank <= 1_000_000
		}
		// Seized domains occasionally reappear (press reports linking
		// to the seizure banner).
		if !d.Seized.IsZero() && !day.Before(d.Seized) && dr.Float64() < 0.08 {
			rank := 600_000 + dr.IntN(400_000)
			return rank, true
		}
		return 0, false
	}
	return 0, false
}

// MonthlyRank is one domain's Figure 3 data point for a month.
type MonthlyRank struct {
	Domain string
	Month  time.Time
	// MedianRank is the median Alexa rank over the month's days in the
	// Top 1M (0 when absent all month).
	MedianRank int
	Seized     bool
}

// Figure3 computes, per month of the measurement period, the median
// Alexa rank of every booter domain present in the Top 1M that month —
// the data behind the paper's Figure 3.
func (o *Observatory) Figure3() []MonthlyRank {
	var out []MonthlyRank
	month := time.Date(o.cfg.Start.Year(), o.cfg.Start.Month(), 1, 0, 0, 0, 0, time.UTC)
	for !month.After(o.cfg.End) {
		next := month.AddDate(0, 1, 0)
		for i := range o.domains {
			d := &o.domains[i]
			if !d.Booter {
				continue
			}
			var ranks []float64
			for day := month; day.Before(next); day = day.AddDate(0, 0, 1) {
				if r, ok := o.alexaRank(d.Name, day); ok {
					ranks = append(ranks, float64(r))
				}
			}
			if len(ranks) == 0 {
				continue
			}
			out = append(out, MonthlyRank{
				Domain:     d.Name,
				Month:      month,
				MedianRank: int(stats.Median(ranks)),
				Seized:     !d.Seized.IsZero(),
			})
		}
		month = next
	}
	return out
}

// BooterCountByMonth returns how many booter domains exist in the zones
// at the start of each month — the population growth the paper reports
// despite the takedown.
func (o *Observatory) BooterCountByMonth() []struct {
	Month time.Time
	Count int
} {
	var out []struct {
		Month time.Time
		Count int
	}
	month := time.Date(o.cfg.Start.Year(), o.cfg.Start.Month(), 1, 0, 0, 0, 0, time.UTC)
	for !month.After(o.cfg.End) {
		count := 0
		for i := range o.domains {
			if o.domains[i].Booter && !o.domains[i].Registered.After(month) {
				count++
			}
		}
		out = append(out, struct {
			Month time.Time
			Count int
		}{month, count})
		month = month.AddDate(0, 1, 0)
	}
	return out
}

// NewDomainsAfter returns verified booter domains whose websites became
// active in (after, until] — how the study spotted booter A's new
// domain right after the takedown.
func (o *Observatory) NewDomainsAfter(after, until time.Time) []Domain {
	var out []Domain
	for i := range o.domains {
		d := o.domains[i]
		if d.Booter && d.Activated.After(after) && !d.Activated.After(until) {
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Activated.Before(out[j].Activated) })
	return out
}
