package booterdb

import (
	"testing"
	"time"

	"booterscope/internal/booter"
)

var dbStart = time.Date(2018, 4, 1, 0, 0, 0, 0, time.UTC)

func testDB(t testing.TB, name string, seed uint64) *Database {
	t.Helper()
	svc, err := booter.ServiceByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return Generate(svc, GenerateConfig{Start: dbStart, Days: 180, Users: 800, Seed: seed})
}

func TestGenerateShape(t *testing.T) {
	db := testDB(t, "B", 1)
	if db.Booter != "B" {
		t.Errorf("booter = %q", db.Booter)
	}
	if len(db.Users) != 800 {
		t.Fatalf("users = %d", len(db.Users))
	}
	if len(db.Payments) < 800 {
		t.Errorf("payments = %d, want at least one per user", len(db.Payments))
	}
	if len(db.Attacks) < 1000 {
		t.Errorf("attacks = %d", len(db.Attacks))
	}
	// Attack times sit inside the operational window.
	for _, a := range db.Attacks {
		if a.Time.Before(dbStart) || a.Time.After(dbStart.AddDate(0, 0, 181)) {
			t.Fatalf("attack time %v outside window", a.Time)
		}
	}
	// Vectors only from the booter's offering.
	svc, _ := booter.ServiceByName("B")
	for _, a := range db.Attacks {
		if !svc.Supports(a.Vector) {
			t.Fatalf("attack with unsupported vector %v", a.Vector)
		}
	}
}

func TestDeterministicGeneration(t *testing.T) {
	a, b := testDB(t, "A", 7), testDB(t, "A", 7)
	if len(a.Attacks) != len(b.Attacks) || len(a.Payments) != len(b.Payments) {
		t.Fatal("generation not deterministic")
	}
	for i := range a.Attacks {
		if a.Attacks[i] != b.Attacks[i] {
			t.Fatalf("attack %d differs", i)
		}
	}
}

func TestTopTargetsRepeatVictims(t *testing.T) {
	db := testDB(t, "B", 2)
	top := db.TopTargets(10)
	if len(top) != 10 {
		t.Fatalf("top = %d", len(top))
	}
	// Repeat victimization: the busiest target takes many attacks.
	if top[0].Count < 10 {
		t.Errorf("top victim has only %d attacks", top[0].Count)
	}
	// Sorted descending.
	for i := 1; i < len(top); i++ {
		if top[i].Count > top[i-1].Count {
			t.Fatal("top targets not sorted")
		}
	}
	// Asking for more than exist returns all.
	all := db.TopTargets(1 << 30)
	if len(all) < 100 {
		t.Errorf("distinct targets = %d", len(all))
	}
}

func TestPowerUserShare(t *testing.T) {
	db := testDB(t, "B", 3)
	share := db.PowerUserShare(0.1)
	// Heavy tail: the top 10 % of attackers launch well over a third of
	// all attacks.
	if share < 0.35 || share > 0.995 {
		t.Errorf("top-10%% share = %.2f", share)
	}
	if empty := (&Database{}).PowerUserShare(0.1); empty != 0 {
		t.Errorf("empty share = %v", empty)
	}
}

func TestRevenue(t *testing.T) {
	db := testDB(t, "A", 4)
	byMethod := make(map[paymentMethod]float64)
	for _, p := range db.Payments {
		byMethod[p.Method] += p.Amount
	}
	if byMethod[PayPal] <= byMethod[Bitcoin] {
		t.Errorf("paypal %.0f <= bitcoin %.0f; paypal should dominate", byMethod[PayPal], byMethod[Bitcoin])
	}
	var sum float64
	for _, v := range byMethod {
		sum += v
	}
	if total := db.TotalRevenue(); total != sum {
		t.Errorf("total %.2f != sum of methods %.2f", total, sum)
	}
	if db.TotalRevenue() < 800*8.00 {
		t.Errorf("revenue %.0f below one subscription per user", db.TotalRevenue())
	}
}

func TestPaymentMethodStrings(t *testing.T) {
	for m, want := range map[paymentMethod]string{PayPal: "paypal", Bitcoin: "bitcoin", GiftCard: "giftcard", 7: "PaymentMethod(7)"} {
		if got := m.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", uint8(m), got, want)
		}
	}
}

func BenchmarkGenerate(b *testing.B) {
	svc, _ := booter.ServiceByName("B")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Generate(svc, GenerateConfig{Start: dbStart, Days: 180, Users: 800, Seed: uint64(i)})
	}
}

func BenchmarkTopTargets(b *testing.B) {
	db := testDB(b, "B", 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = db.TopTargets(10)
	}
}
