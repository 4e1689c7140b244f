package domainobs

import (
	"strings"
	"testing"
	"time"
)

var (
	start    = time.Date(2018, 1, 1, 0, 0, 0, 0, time.UTC)
	end      = time.Date(2019, 5, 31, 0, 0, 0, 0, time.UTC)
	takedown = time.Date(2018, 12, 19, 0, 0, 0, 0, time.UTC)
)

func testObservatory() *Observatory {
	return NewObservatory(Config{Start: start, End: end, Takedown: takedown, Seed: 5})
}

func TestMatchesKeywords(t *testing.T) {
	cases := []struct {
		domain string
		want   bool
	}{
		{"quantum-booter-3.com", true},
		{"power-stresser-1.net", true},
		{"DDOS-panel.org", true},
		{"example.com", false},
		{"boot.com", false},
		{"stress.net", false},
	}
	for _, c := range cases {
		if got := matchesKeywords(c.domain); got != c.want {
			t.Errorf("MatchesKeywords(%q) = %t", c.domain, got)
		}
	}
}

func TestUniverseShape(t *testing.T) {
	o := testObservatory()
	var booters, seized, benign int
	for _, d := range o.Domains() {
		if d.Booter {
			booters++
			if !d.Seized.IsZero() {
				seized++
			}
		} else {
			benign++
		}
	}
	// 58 catalog booters + booter A's fallback domain.
	if booters != 59 {
		t.Errorf("booter domains = %d, want 59", booters)
	}
	if seized != 15 {
		t.Errorf("seized = %d, want 15", seized)
	}
	if benign < 1000 {
		t.Errorf("benign = %d", benign)
	}
}

func TestSeizedDomainsWereActiveBeforeTakedown(t *testing.T) {
	o := testObservatory()
	for _, d := range o.Domains() {
		if d.Seized.IsZero() {
			continue
		}
		if !d.activeAt(takedown.AddDate(0, 0, -30)) {
			t.Errorf("seized domain %s not active a month before takedown", d.Name)
		}
		if d.activeAt(takedown.AddDate(0, 0, 1)) {
			t.Errorf("seized domain %s still active after takedown", d.Name)
		}
	}
}

func TestZoneSnapshotGrows(t *testing.T) {
	o := testObservatory()
	early := o.ZoneSnapshot(start.AddDate(0, 2, 0))
	late := o.ZoneSnapshot(end)
	if len(early) >= len(late) {
		t.Errorf("zone does not grow: %d -> %d", len(early), len(late))
	}
	// Seizure does not remove domains from the zone.
	post := o.ZoneSnapshot(takedown.AddDate(0, 0, 7))
	seizedPresent := 0
	for _, d := range o.Domains() {
		if d.Seized.IsZero() {
			continue
		}
		for _, name := range post {
			if name == d.Name {
				seizedPresent++
				break
			}
		}
	}
	if seizedPresent != 15 {
		t.Errorf("seized domains in zone after takedown = %d, want 15", seizedPresent)
	}
}

func TestIdentifyBooters(t *testing.T) {
	o := testObservatory()
	snapshot := o.ZoneSnapshot(end)
	hits := o.KeywordHits(snapshot)
	verified := o.IdentifyBooters(snapshot)
	if len(verified) != 59 {
		t.Errorf("verified booters = %d, want 59", len(verified))
	}
	// Keyword matching alone yields false positives (anti-ddos sites),
	// so manual verification must cut the list.
	if len(hits) <= len(verified) {
		t.Errorf("keyword hits %d <= verified %d; expected benign keyword collisions", len(hits), len(verified))
	}
	for _, name := range verified {
		if !matchesKeywords(name) {
			t.Errorf("verified domain %q does not match keywords", name)
		}
	}
}

func TestAlexaRankLifecycle(t *testing.T) {
	o := testObservatory()
	var seizedDomain Domain
	for _, d := range o.Domains() {
		if !d.Seized.IsZero() {
			seizedDomain = d
			break
		}
	}
	// Active before takedown: ranked.
	if _, ok := o.alexaRank(seizedDomain.Name, takedown.AddDate(0, 0, -10)); !ok {
		t.Error("seized domain unranked before takedown")
	}
	// After: mostly unranked (occasional press re-entries allowed).
	ranked := 0
	for d := 1; d <= 30; d++ {
		if _, ok := o.alexaRank(seizedDomain.Name, takedown.AddDate(0, 0, d)); ok {
			ranked++
		}
	}
	if ranked > 10 {
		t.Errorf("seized domain ranked on %d/30 post-takedown days", ranked)
	}
	if _, ok := o.alexaRank("no-such-domain.example", takedown); ok {
		t.Error("unknown domain ranked")
	}
}

func TestSuccessorDomainTimeline(t *testing.T) {
	o := testObservatory()
	// Booter A's fallback: registered June 2018, inactive until three
	// days after the takedown.
	var successor *Domain
	for i := range o.Domains() {
		d := &o.Domains()[i]
		if d.SuccessorOf != "" {
			successor = d
			break
		}
	}
	if successor == nil {
		t.Fatal("no successor domain in universe")
	}
	if successor.Registered.After(takedown.AddDate(0, -6, 0)) {
		t.Errorf("successor registered %v, want months before takedown", successor.Registered)
	}
	if successor.activeAt(takedown) {
		t.Error("successor active before takedown (should be parked)")
	}
	wantActive := takedown.AddDate(0, 0, 3)
	if !successor.activeAt(wantActive) {
		t.Errorf("successor not active at %v", wantActive)
	}
	if _, ok := o.alexaRank(successor.Name, wantActive); !ok {
		t.Error("successor not in Top 1M after activation")
	}
	// NewDomainsAfter discovers it.
	fresh := o.NewDomainsAfter(takedown, takedown.AddDate(0, 0, 7))
	found := false
	for _, d := range fresh {
		if d.Name == successor.Name {
			found = true
		}
	}
	if !found {
		t.Error("NewDomainsAfter missed the successor domain")
	}
}

func TestFigure3(t *testing.T) {
	o := testObservatory()
	rows := o.Figure3()
	if len(rows) == 0 {
		t.Fatal("no figure 3 rows")
	}
	months := make(map[time.Time]int)
	seizedRows := 0
	for _, row := range rows {
		if row.MedianRank <= 0 {
			t.Fatalf("row with non-positive rank: %+v", row)
		}
		if !matchesKeywords(row.Domain) {
			t.Fatalf("non-booter row: %+v", row)
		}
		months[row.Month]++
		if row.Seized {
			seizedRows++
		}
	}
	if seizedRows == 0 {
		t.Error("no seized-domain rows")
	}
	// The booter presence in the Top 1M grows over time.
	first := months[time.Date(2018, 2, 1, 0, 0, 0, 0, time.UTC)]
	last := months[time.Date(2019, 4, 1, 0, 0, 0, 0, time.UTC)]
	if first >= last {
		t.Errorf("booter Top-1M presence does not grow: %d -> %d", first, last)
	}
}

func TestBooterCountByMonth(t *testing.T) {
	o := testObservatory()
	counts := o.BooterCountByMonth()
	if len(counts) < 16 {
		t.Fatalf("months = %d", len(counts))
	}
	// Monotone non-decreasing (registrations only) and growing overall —
	// "the number of booter service domains in total increased over the
	// measurement period despite the seizure".
	for i := 1; i < len(counts); i++ {
		if counts[i].Count < counts[i-1].Count {
			t.Fatalf("booter count shrank at %v", counts[i].Month)
		}
	}
	var atTakedown, atEnd int
	for _, c := range counts {
		if c.Month.Equal(time.Date(2018, 12, 1, 0, 0, 0, 0, time.UTC)) {
			atTakedown = c.Count
		}
	}
	atEnd = counts[len(counts)-1].Count
	if atEnd <= atTakedown {
		t.Errorf("population did not grow after takedown: %d -> %d", atTakedown, atEnd)
	}
}

func TestDeterminism(t *testing.T) {
	a := testObservatory().Figure3()
	b := testObservatory().Figure3()
	if len(a) != len(b) {
		t.Fatalf("row counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("row %d differs", i)
		}
	}
}

func TestBenignKeywordCollisionsExist(t *testing.T) {
	o := testObservatory()
	collisions := 0
	for _, d := range o.Domains() {
		if !d.Booter && matchesKeywords(d.Name) {
			collisions++
		}
	}
	if collisions == 0 {
		t.Error("universe should contain benign keyword collisions")
	}
}

func TestIdentifyIgnoresNonBooterKeywordDomains(t *testing.T) {
	o := testObservatory()
	verified := o.IdentifyBooters([]string{"anti-ddos-protect-0.com", "quantum-booter-0.com"})
	for _, name := range verified {
		if strings.HasPrefix(name, "anti-ddos") {
			t.Error("benign keyword domain verified as booter")
		}
	}
}

func BenchmarkFigure3(b *testing.B) {
	o := testObservatory()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = o.Figure3()
	}
}
