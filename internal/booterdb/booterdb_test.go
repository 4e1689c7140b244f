package booterdb

import (
	"bytes"
	"net/netip"
	"strings"
	"testing"
	"time"

	"booterscope/internal/amplify"
	"booterscope/internal/booter"
	"booterscope/internal/reflector"
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
	byMethod := db.RevenueByMethod()
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

func TestVectorUsage(t *testing.T) {
	db := testDB(t, "C", 5)
	usage := db.VectorUsage()
	if usage[amplify.NTP] == 0 || usage[amplify.DNS] == 0 {
		t.Errorf("usage = %v", usage)
	}
	if usage[amplify.Memcached] != 0 {
		t.Error("booter C logged memcached attacks it does not offer")
	}
}

func TestVictimOverlap(t *testing.T) {
	a := testDB(t, "A", 6)
	b := testDB(t, "B", 6)
	// Independent victim pools (different booter forks) rarely collide;
	// self-overlap equals the distinct victim count.
	self := VictimOverlap(a, a)
	if self != len(a.TopTargets(1<<30)) {
		t.Errorf("self overlap %d != distinct victims %d", self, len(a.TopTargets(1<<30)))
	}
	cross := VictimOverlap(a, b)
	if cross >= self {
		t.Errorf("cross overlap %d >= self %d", cross, self)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	db := testDB(t, "B", 8)
	var buf bytes.Buffer
	if err := db.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(db.Attacks) {
		t.Fatalf("rows = %d, want %d", len(got), len(db.Attacks))
	}
	for i := range got {
		want := db.Attacks[i]
		want.Time = want.Time.UTC() // CSV stores UTC
		if got[i] != want {
			t.Fatalf("row %d = %+v, want %+v", i, got[i], want)
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []string{
		"",
		"wrong,header\n1,2\n",
		"id,user_id,target,vector,duration_s,time\nx,2,1.1.1.1,NTP,30,2018-04-01T00:00:00Z\n",
		"id,user_id,target,vector,duration_s,time\n1,2,notanip,NTP,30,2018-04-01T00:00:00Z\n",
		"id,user_id,target,vector,duration_s,time\n1,2,1.1.1.1,WAT,30,2018-04-01T00:00:00Z\n",
		"id,user_id,target,vector,duration_s,time\n1,2,1.1.1.1,NTP,30,yesterday\n",
	}
	for i, c := range cases {
		if _, err := ReadCSV(strings.NewReader(c)); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestPaymentMethodStrings(t *testing.T) {
	for _, m := range []paymentMethod{PayPal, Bitcoin, GiftCard} {
		back, err := parsePaymentMethod(m.String())
		if err != nil || back != m {
			t.Errorf("round trip %v failed: %v", m, err)
		}
	}
	if _, err := parsePaymentMethod("cash"); err == nil {
		t.Error("unknown method accepted")
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

func TestFromHistory(t *testing.T) {
	svc, err := booter.ServiceByName("C")
	if err != nil {
		t.Fatal(err)
	}
	svc.SeizedByFBI = false
	panel := booter.NewPanel(svc, booter.NewEngine(map[amplify.Vector]*reflector.Pool{
		amplify.NTP: reflector.NewPool(amplify.NTP, 5000, 50, 1),
		amplify.DNS: reflector.NewPool(amplify.DNS, 5000, 50, 1),
	}, 1))
	for i := 0; i < 5; i++ {
		_, err := panel.Launch(i%2, booter.Order{
			Vector:   amplify.NTP,
			Target:   netip.AddrFrom4([4]byte{198, 51, 100, byte(i + 1)}),
			Duration: time.Minute,
		}, dbStart.Add(time.Duration(i)*5*time.Minute))
		if err != nil {
			t.Fatal(err)
		}
	}
	db := FromHistory("C", panel.History())
	if db.Booter != "C" {
		t.Errorf("booter = %q", db.Booter)
	}
	if len(db.Attacks) != 5 {
		t.Fatalf("attacks = %d", len(db.Attacks))
	}
	if len(db.Users) != 2 {
		t.Errorf("users = %d, want 2 distinct", len(db.Users))
	}
	// The same analyses run on panel-derived leaks.
	if top := db.TopTargets(3); len(top) == 0 {
		t.Error("no top targets")
	}
	var buf bytes.Buffer
	if err := db.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Errorf("CSV rows = %d", len(rows))
	}
}
