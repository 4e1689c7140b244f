package economy

import (
	"testing"
	"time"
)

var (
	mktStart = time.Date(2018, 11, 1, 0, 0, 0, 0, time.UTC)
	seizure  = time.Date(2018, 12, 19, 0, 0, 0, 0, time.UTC)
)

func testMarket() *Market {
	return NewMarket(Config{
		Start:    mktStart,
		Days:     90,
		Takedown: seizure,
		Seed:     3,
	})
}

func TestMarketDeterministic(t *testing.T) {
	a := testMarket().Run()
	b := testMarket().Run()
	if len(a) != len(b) {
		t.Fatalf("day counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].TotalSubscribers() != b[i].TotalSubscribers() ||
			a[i].TotalRevenue() != b[i].TotalRevenue() {
			t.Fatalf("day %d differs", i)
		}
	}
}

func TestMarketGrowsBeforeTakedown(t *testing.T) {
	stats := testMarket().Run()
	// Day 0 vs day 40 (both pre-takedown).
	if stats[40].TotalSubscribers() <= stats[0].TotalSubscribers() {
		t.Errorf("market did not grow: %d -> %d",
			stats[0].TotalSubscribers(), stats[40].TotalSubscribers())
	}
}

func TestSeizedRevenueCollapses(t *testing.T) {
	stats := testMarket().Run()
	impact, err := Impact(stats, seizure, 14)
	if err != nil {
		t.Fatal(err)
	}
	// Seized operators lose most revenue: A recovers after 3 days on
	// its backup domain, B earns nothing.
	if r := impact.SeizedRevenueRatio(); r > 0.6 || r < 0.05 {
		t.Errorf("seized revenue ratio = %.2f, want a large partial collapse", r)
	}
	// Survivors gain from migrating subscribers.
	if r := impact.survivorRevenueRatio(); r < 1.05 {
		t.Errorf("survivor revenue ratio = %.2f, want growth from migration", r)
	}
}

func TestAttackDemandBarelyMoves(t *testing.T) {
	stats := testMarket().Run()
	impact, err := Impact(stats, seizure, 14)
	if err != nil {
		t.Fatal(err)
	}
	// The economic counterpart of the paper's traffic finding: demand
	// dips only as far as the quitting share, then recovers.
	if r := impact.DemandRatio(); r < 0.7 || r > 1.1 {
		t.Errorf("attack demand ratio = %.2f, want near 1", r)
	}
}

func TestTakedownDayDrop(t *testing.T) {
	stats := testMarket().Run()
	var before, onDay DayStats
	for _, s := range stats {
		if s.Day.Equal(seizure.AddDate(0, 0, -1)) {
			before = s
		}
		if s.Day.Equal(seizure) {
			onDay = s
		}
	}
	// On the seizure day both A and B earn nothing.
	if onDay.RevenueByService["A"] != 0 || onDay.RevenueByService["B"] != 0 {
		t.Errorf("seized revenue on takedown day: A=%.2f B=%.2f",
			onDay.RevenueByService["A"], onDay.RevenueByService["B"])
	}
	if before.RevenueByService["A"] == 0 || before.RevenueByService["B"] == 0 {
		t.Error("seized services should earn before the takedown")
	}
	// Survivors absorb migrated subscribers immediately.
	if onDay.SubscribersByService["C"] <= before.SubscribersByService["C"] {
		t.Errorf("booter C subscribers %d -> %d, want migration gain",
			before.SubscribersByService["C"], onDay.SubscribersByService["C"])
	}
}

func TestBooterAReemerges(t *testing.T) {
	stats := testMarket().Run()
	var day2, day4 DayStats
	for _, s := range stats {
		if s.Day.Equal(seizure.AddDate(0, 0, 2)) {
			day2 = s
		}
		if s.Day.Equal(seizure.AddDate(0, 0, 4)) {
			day4 = s
		}
	}
	// Two days after the seizure booter A is still dark.
	if day2.RevenueByService["A"] != 0 {
		t.Errorf("booter A revenue 2 days after seizure = %.2f", day2.RevenueByService["A"])
	}
	// Four days after (backup domain live on day 3) it earns again.
	if day4.RevenueByService["A"] == 0 {
		t.Error("booter A should re-emerge on its backup domain")
	}
	// Booter B has no backup and stays dark.
	if day4.RevenueByService["B"] != 0 {
		t.Errorf("booter B revenue after seizure = %.2f", day4.RevenueByService["B"])
	}
}

func TestNoTakedownScenario(t *testing.T) {
	m := NewMarket(Config{Start: mktStart, Days: 60, Seed: 4})
	stats := m.Run()
	for _, s := range stats {
		if s.RevenueByService["A"] == 0 || s.RevenueByService["B"] == 0 {
			t.Fatalf("revenue gap without a takedown on %v", s.Day)
		}
	}
}

func TestImpactWindowValidation(t *testing.T) {
	m := NewMarket(Config{Start: mktStart, Days: 10, Takedown: seizure, Seed: 5})
	stats := m.Run()
	if _, err := Impact(stats, seizure, 14); err == nil {
		t.Error("expected error when windows exceed the simulated range")
	}
}

func TestMigrationMatrix(t *testing.T) {
	m := testMarket()
	stats := m.Run()
	last := stats[len(stats)-1].Day
	matrix := m.MigrationMatrix(last)
	if len(matrix) != 4 {
		t.Fatalf("services in matrix = %d", len(matrix))
	}
	total := 0
	for _, row := range matrix {
		total += row.Count
	}
	if total == 0 {
		t.Fatal("no active subscribers at end")
	}
	// B's subscribers migrated or quit; B should hold fewer than C now
	// despite starting more popular.
	var bCount, cCount int
	for _, row := range matrix {
		if row.Service == "B" {
			bCount = row.Count
		}
		if row.Service == "C" {
			cCount = row.Count
		}
	}
	if bCount >= cCount {
		t.Errorf("B=%d >= C=%d after seizure; B's base should have shrunk", bCount, cCount)
	}
}

func TestSubscriberActive(t *testing.T) {
	s := subscriber{Joined: mktStart, Quit: mktStart.AddDate(0, 0, 10)}
	if s.active(mktStart.AddDate(0, 0, -1)) {
		t.Error("active before join")
	}
	if !s.active(mktStart.AddDate(0, 0, 5)) {
		t.Error("inactive while subscribed")
	}
	if s.active(mktStart.AddDate(0, 0, 10)) {
		t.Error("active after quit")
	}
}

func BenchmarkMarketRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = testMarket().Run()
	}
}
