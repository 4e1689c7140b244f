package federation

// The join as it was before it sorted one flat slice of observations:
// a map of victims, a stable sort per victim, summaries copied into
// the sweep. TestJoinMatchesReference holds join to it.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"sort"
	"testing"
	"time"

	"booterscope/internal/classify"
	"booterscope/internal/flowstore"
)

// refObsRef is one (vantage, summary) pair during the join sweep.
type refObsRef struct {
	vantage int
	sum     classify.AttackSummary
}

// refJoin clusters the per-vantage attack logs by victim and widened
// time overlap and builds the report.
func (c *Coordinator) refJoin(runs []vantageRun) *CorrelationReport {
	report := &CorrelationReport{
		PerVantage: make([]VantageClassification, len(c.vantages)),
	}
	byVictim := make(map[netip.Addr][]refObsRef)
	var victims []netip.Addr
	for i := range runs {
		pv := &report.PerVantage[i]
		pv.Name = c.vantages[i].v.Name
		pv.Tier = c.vantages[i].v.Tier
		pv.Stats = runs[i].stats
		for _, sum := range runs[i].log {
			pv.Attacks++
			if sum.Crossed {
				pv.Crossed++
			}
			if _, ok := byVictim[sum.Victim]; !ok {
				victims = append(victims, sum.Victim)
			}
			byVictim[sum.Victim] = append(byVictim[sum.Victim], refObsRef{vantage: i, sum: sum})
		}
	}
	sort.Slice(victims, func(i, j int) bool { return victims[i].Less(victims[j]) })

	for _, v := range victims {
		obs := byVictim[v]
		// Stable: a vantage can log several same-victim summaries with
		// equal first minutes; their attack-log order must carry
		// through, not the sort's pivot luck.
		sort.SliceStable(obs, func(i, j int) bool {
			if obs[i].sum.FirstMinuteUnix != obs[j].sum.FirstMinuteUnix {
				return obs[i].sum.FirstMinuteUnix < obs[j].sum.FirstMinuteUnix
			}
			return obs[i].vantage < obs[j].vantage
		})
		// Interval sweep: cluster observations whose widened minute
		// intervals overlap. An observation covering minutes
		// [first, last] spans [first-skew, last+60+skew] seconds.
		var cluster []refObsRef
		var clusterEnd int64
		flush := func() {
			if len(cluster) > 0 {
				c.refEmitCluster(report, v, cluster)
			}
			cluster = nil
		}
		for _, o := range obs {
			skew := c.vantages[o.vantage].v.ClockSkewMaxSeconds
			start := o.sum.FirstMinuteUnix - skew
			end := o.sum.LastMinuteUnix + 60 + skew
			if len(cluster) > 0 && start > clusterEnd {
				flush()
			}
			cluster = append(cluster, o)
			if len(cluster) == 1 || end > clusterEnd {
				clusterEnd = end
			}
		}
		flush()
	}

	// The victim sweep appends in (victim, first minute) order;
	// re-sort to (first minute, victim) — the timeline order the CLI
	// prints — before assigning the dense join IDs.
	sort.SliceStable(report.Attacks, func(i, j int) bool {
		if report.Attacks[i].FirstMinuteUnix != report.Attacks[j].FirstMinuteUnix {
			return report.Attacks[i].FirstMinuteUnix < report.Attacks[j].FirstMinuteUnix
		}
		return report.Attacks[i].Victim.Less(report.Attacks[j].Victim)
	})
	for i := range report.Attacks {
		report.Attacks[i].ID = uint64(i + 1)
		if report.Attacks[i].Disagreement {
			report.Disagreements++
		}
	}
	return report
}

// refEmitCluster turns one (victim, overlapping observations) cluster
// into a CorrelatedAttack, dropping clusters no vantage saw cross the
// thresholds.
func (c *Coordinator) refEmitCluster(report *CorrelationReport, victim netip.Addr, cluster []refObsRef) {
	crossed := false
	for _, o := range cluster {
		if o.sum.Crossed {
			crossed = true
			break
		}
	}
	if !crossed {
		return
	}
	a := CorrelatedAttack{
		Victim:          victim,
		FirstMinuteUnix: cluster[0].sum.FirstMinuteUnix,
		LastMinuteUnix:  cluster[0].sum.LastMinuteUnix,
		PerVantageRate:  make(map[string]float64, len(c.vantages)),
	}
	seen := make([]bool, len(c.vantages))
	for _, o := range cluster {
		if o.sum.FirstMinuteUnix < a.FirstMinuteUnix {
			a.FirstMinuteUnix = o.sum.FirstMinuteUnix
		}
		if o.sum.LastMinuteUnix > a.LastMinuteUnix {
			a.LastMinuteUnix = o.sum.LastMinuteUnix
		}
		name := c.vantages[o.vantage].v.Name
		if o.sum.Crossed {
			seen[o.vantage] = true
		}
		if g := o.sum.PeakGbps; g > a.PerVantageRate[name] {
			a.PerVantageRate[name] = g
		}
	}
	// Observations in federation order; within a vantage, by first
	// minute (the sweep's sort is stable under the re-sort below).
	sort.SliceStable(cluster, func(i, j int) bool {
		if cluster[i].vantage != cluster[j].vantage {
			return cluster[i].vantage < cluster[j].vantage
		}
		return cluster[i].sum.FirstMinuteUnix < cluster[j].sum.FirstMinuteUnix
	})
	for _, o := range cluster {
		a.Observations = append(a.Observations, vantageObservation{
			Vantage: c.vantages[o.vantage].v.Name,
			Tier:    c.vantages[o.vantage].v.Tier,
			Summary: o.sum,
		})
	}
	for i := range c.vantages {
		switch {
		case seen[i]:
			a.SeenAt = append(a.SeenAt, c.vantages[i].v.Name)
		default:
			a.MissingAt = append(a.MissingAt, c.vantages[i].v.Name)
		}
	}
	a.Disagreement = len(a.SeenAt) > 0 && len(a.MissingAt) > 0
	report.Attacks = append(report.Attacks, a)
}

// TestJoinMatchesReference holds join to refJoin over crafted logs and
// over the golden federation's. The crafted logs carry what the one
// flat sort must order exactly as the per-victim stable sorts did: one
// vantage logging one victim many times with the same first minute
// (evicted, then re-opened by late records), equal first minutes
// across vantages, clock-skewed vantages whose widened intervals join
// or stay apart, IPv6 victims whose 16-byte forms sort before the IPv4
// ones', uncrossed observations, and random logs over few victims and
// minutes, so ties are common.
func TestJoinMatchesReference(t *testing.T) {
	vantages := func(skews ...int64) *Coordinator {
		c := &Coordinator{}
		for i, skew := range skews {
			c.vantages = append(c.vantages, vantageStore{v: Vantage{
				Name: fmt.Sprintf("v%d", i), Tier: fmt.Sprintf("tier%d", i), ClockSkewMaxSeconds: skew,
			}})
		}
		return c
	}
	base := time.Date(2019, 1, 8, 21, 0, 0, 0, time.UTC).Unix()
	victims := []netip.Addr{
		netip.MustParseAddr("203.0.113.7"),
		netip.MustParseAddr("203.0.113.9"),
		netip.MustParseAddr("::1"),
		netip.MustParseAddr("2001:db8::7"),
		netip.MustParseAddr("0.0.0.0"),
	}
	sum := func(id uint64, victim netip.Addr, first, last int64, gbps float64, crossed bool) classify.AttackSummary {
		return classify.AttackSummary{ID: id, Victim: victim, FirstMinuteUnix: base + 60*first, LastMinuteUnix: base + 60*last,
			PeakGbps: gbps, MaxSources: int(id % 40), Crossed: crossed, Alerts: int(id % 3)}
	}

	// A vantage logging one victim again and again in one minute, each
	// entry told apart only by its log position and its contents, amid
	// other victims' attacks in attack-log order (first minute, then
	// victim), so the sort has to move every entry.
	var reopened []classify.AttackSummary
	for minute := int64(0); minute < 20; minute++ {
		for v, victim := range victims[:4] {
			n := 1
			if v == 0 && minute%5 == 0 {
				n = 30
			}
			for i := 0; i < n; i++ {
				reopened = append(reopened, sum(uint64(len(reopened)), victim, minute, minute+int64(i%4), float64(i), i%3 != 0))
			}
		}
	}
	cases := []struct {
		name string
		c    *Coordinator
		logs [][]classify.AttackSummary
	}{{
		name: "one vantage reopens a victim in one minute",
		c:    vantages(0, 30),
		logs: [][]classify.AttackSummary{
			reopened,
			{sum(1, victims[0], 10, 10, 5, false), sum(2, victims[1], 10, 12, 6, true), sum(3, victims[0], 15, 16, 6, true)},
		},
	}, {
		name: "equal first minutes across vantages",
		c:    vantages(0, 0, 0),
		logs: [][]classify.AttackSummary{
			{sum(1, victims[0], 5, 6, 1, true), sum(2, victims[2], 5, 5, 1, true), sum(3, victims[3], 5, 7, 2, false)},
			{sum(4, victims[0], 5, 5, 3, false), sum(5, victims[2], 5, 8, 1, false), sum(6, victims[4], 5, 5, 1, true)},
			{sum(7, victims[0], 5, 9, 2, true), sum(8, victims[3], 5, 5, 4, true), sum(9, victims[4], 5, 6, 1, false)},
		},
	}, {
		name: "skewed vantages",
		c:    vantages(0, 60, 150),
		logs: [][]classify.AttackSummary{
			{sum(1, victims[1], 0, 1, 1, true), sum(2, victims[1], 6, 6, 1, true), sum(3, victims[1], 20, 21, 1, true)},
			{sum(4, victims[1], 3, 3, 2, false), sum(5, victims[1], 9, 9, 2, true)},
			{sum(6, victims[1], 14, 15, 3, false), sum(7, victims[1], 25, 25, 3, true), sum(8, victims[3], 0, 0, 1, true)},
		},
	}}
	rng := rand.New(rand.NewSource(55))
	for seed := 0; seed < 20; seed++ {
		c := vantages(int64(rng.Intn(3))*45, int64(rng.Intn(3))*45, int64(rng.Intn(3))*45)
		logs := make([][]classify.AttackSummary, len(c.vantages))
		for v := range logs {
			for n := rng.Intn(60); n > 0; n-- {
				first := int64(rng.Intn(30))
				logs[v] = append(logs[v], sum(rng.Uint64(), victims[rng.Intn(len(victims))], first, first+int64(rng.Intn(4)),
					float64(rng.Intn(8)), rng.Intn(3) != 0))
			}
		}
		cases = append(cases, struct {
			name string
			c    *Coordinator
			logs [][]classify.AttackSummary
		}{fmt.Sprintf("random %d", seed), c, logs})
	}

	m := buildGoldenFederation(t, t.TempDir())
	golden, err := Open(m, Options{StoreOptions: flowstore.Options{NoSync: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer golden.Close()
	opts := CorrelateOptions{Config: classify.Config{MinRateBps: 2_000_000, MinSources: 8}, Retention: 4 * time.Minute, ReAlertAfter: 6 * time.Minute}
	var goldenLogs [][]classify.AttackSummary
	for _, vs := range golden.vantages {
		run := classifyStream(opts, mergeScan(vs.store))
		if run.err != nil {
			t.Fatal(run.err)
		}
		goldenLogs = append(goldenLogs, run.log)
	}
	cases = append(cases, struct {
		name string
		c    *Coordinator
		logs [][]classify.AttackSummary
	}{"golden federation", golden, goldenLogs})

	for _, tc := range cases {
		runs := make([]vantageRun, len(tc.logs))
		for i, log := range tc.logs {
			runs[i] = vantageRun{log: log, stats: flowstore.ScanStats{RecordsMatched: uint64(len(log))}}
		}
		want := tc.c.refJoin(runs)
		if len(want.Attacks) == 0 {
			t.Fatalf("%s: the reference joined nothing", tc.name)
		}
		if got := tc.c.join(runs); !reflect.DeepEqual(got, want) {
			g, _ := json.Marshal(got)
			w, _ := json.Marshal(want)
			t.Errorf("%s: join differs from the reference\n got  %s\n want %s", tc.name, g, w)
		}
	}
}
