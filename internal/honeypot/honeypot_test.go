package honeypot

import (
	"net/netip"
	"testing"
	"time"

	"booterscope/internal/amplify"
	"booterscope/internal/booter"
	"booterscope/internal/reflector"
)

var hpStart = time.Date(2018, 6, 1, 10, 0, 0, 0, time.UTC)

func testSetup(t testing.TB) (*Deployment, *booter.Engine, *reflector.Pool) {
	t.Helper()
	pool := reflector.NewPool(amplify.NTP, 20000, 300, 8)
	// 600 sensors in a 20k universe: working sets of hundreds will
	// contain several sensors.
	dep := NewDeployment(pool, 600, 8)
	eng := booter.NewEngine(map[amplify.Vector]*reflector.Pool{amplify.NTP: pool}, 8)
	return dep, eng, pool
}

func TestSensorRateLimit(t *testing.T) {
	s := newSensor(netip.MustParseAddr("192.0.2.1"), amplify.NTP)
	victim := netip.MustParseAddr("203.0.113.9")
	responded := 0
	for i := 0; i < 20; i++ {
		if s.handleTrigger(hpStart.Add(time.Duration(i)*time.Second), victim, "fp") {
			responded++
		}
	}
	if responded != 5 {
		t.Errorf("responded %d times, want RateLimit=5", responded)
	}
	if len(s.Events()) != 20 {
		t.Errorf("events = %d, want all 20 logged", len(s.Events()))
	}
	// A new minute resets the budget.
	if !s.handleTrigger(hpStart.Add(2*time.Minute), victim, "fp") {
		t.Error("rate limit should reset per minute")
	}
	// A different victim has its own budget.
	if !s.handleTrigger(hpStart, netip.MustParseAddr("203.0.113.10"), "fp") {
		t.Error("per-victim limit leaked across victims")
	}
}

func TestDeploymentPlacement(t *testing.T) {
	dep, _, pool := testSetup(t)
	if dep.Size() != 600 {
		t.Fatalf("sensors = %d", dep.Size())
	}
	// Sensors must live at universe addresses (so booters can pick
	// them).
	ws := reflector.NewWorkingSet(pool, "probe", pool.Size(), 8)
	inUniverse := make(map[netip.Addr]bool)
	for _, ref := range ws.Current() {
		inUniverse[ref.Addr] = true
	}
	probe := 0
	for addr := range dep.sensors {
		if inUniverse[addr] {
			probe++
		}
	}
	if probe != 600 {
		t.Errorf("%d/600 sensors inside the universe", probe)
	}
}

func TestObserveAttackHitsSensors(t *testing.T) {
	dep, eng, _ := testSetup(t)
	svc, _ := booter.ServiceByName("A")
	atk, err := eng.Launch(booter.Order{
		Service: svc, Vector: amplify.NTP,
		Target:   netip.MustParseAddr("203.0.113.7"),
		Duration: 60 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	hits := dep.ObserveAttack(atk, hpStart)
	// 400 reflectors from a 20k universe with 600 sensors: expect ~12.
	if hits < 3 || hits > 40 {
		t.Errorf("sensor hits = %d, want around 12", hits)
	}
}

func TestReconstructSingleAttack(t *testing.T) {
	dep, eng, _ := testSetup(t)
	svc, _ := booter.ServiceByName("A")
	atk, err := eng.Launch(booter.Order{
		Service: svc, Vector: amplify.NTP,
		Target:   netip.MustParseAddr("203.0.113.7"),
		Duration: 120 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	hits := dep.ObserveAttack(atk, hpStart)
	if hits == 0 {
		t.Skip("no sensors drawn into this working set")
	}
	obs := dep.Reconstruct()
	if len(obs) != 1 {
		t.Fatalf("observations = %d, want 1", len(obs))
	}
	o := obs[0]
	if o.Victim != netip.MustParseAddr("203.0.113.7") {
		t.Errorf("victim = %v", o.Victim)
	}
	if o.Sensors != hits {
		t.Errorf("sensors = %d, want %d", o.Sensors, hits)
	}
	if o.Duration() <= 0 || o.Duration() > 2*time.Minute {
		t.Errorf("duration = %v", o.Duration())
	}
	if o.Vector != amplify.NTP {
		t.Errorf("vector = %v", o.Vector)
	}
}

func TestReconstructSeparatesVictimsAndTime(t *testing.T) {
	dep, eng, _ := testSetup(t)
	svc, _ := booter.ServiceByName("A")
	victims := []string{"203.0.113.7", "203.0.113.8"}
	for _, v := range victims {
		atk, err := eng.Launch(booter.Order{
			Service: svc, Vector: amplify.NTP,
			Target:   netip.MustParseAddr(v),
			Duration: 60 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		dep.ObserveAttack(atk, hpStart)
		// Same victim again, well past the cluster gap: a second
		// observation.
		atk2, err := eng.Launch(booter.Order{
			Service: svc, Vector: amplify.NTP,
			Target:   netip.MustParseAddr(v),
			Duration: 60 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		dep.ObserveAttack(atk2, hpStart.Add(time.Hour))
	}
	obs := dep.Reconstruct()
	if len(obs) != 4 {
		t.Fatalf("observations = %d, want 4 (2 victims x 2 separated attacks)", len(obs))
	}
}

func TestAttribution(t *testing.T) {
	dep, eng, _ := testSetup(t)
	attr := NewAttributor()

	// Training: self-attacks from A and B teach their fingerprints.
	for _, name := range []string{"A", "B"} {
		svc, _ := booter.ServiceByName(name)
		atk, err := eng.Launch(booter.Order{
			Service: svc, Vector: amplify.NTP,
			Target:   netip.MustParseAddr("203.0.113.99"),
			Duration: 30 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		attr.TrainFromSelfAttack(atk)
	}

	// Wild attacks: A against one victim, B against another, C unknown.
	for i, name := range []string{"A", "B", "C"} {
		svc, _ := booter.ServiceByName(name)
		atk, err := eng.Launch(booter.Order{
			Service: svc, Vector: amplify.NTP,
			Target:   netip.MustParseAddr(netip.AddrFrom4([4]byte{198, 51, 100, byte(i + 1)}).String()),
			Duration: 60 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		if dep.ObserveAttack(atk, hpStart.Add(time.Duration(i)*time.Hour)) == 0 {
			t.Fatalf("booter %s attack missed all sensors", name)
		}
	}

	obs := dep.Reconstruct()
	rep := attr.Report(obs)
	if rep.Total != 3 {
		t.Fatalf("observations = %d, want 3", rep.Total)
	}
	if rep.Attributed != 2 {
		t.Errorf("attributed = %d, want 2 (A and B trained, C unknown)", rep.Attributed)
	}
	if rep.ByBooter["A"] != 1 || rep.ByBooter["B"] != 1 {
		t.Errorf("per-booter attribution = %v", rep.ByBooter)
	}
	if rep.Rate() < 0.6 || rep.Rate() > 0.7 {
		t.Errorf("attribution rate = %.2f, want 2/3", rep.Rate())
	}
}

func TestFingerprintStableAndDistinct(t *testing.T) {
	a1 := fingerprint("A", amplify.NTP)
	a2 := fingerprint("A", amplify.NTP)
	b := fingerprint("B", amplify.NTP)
	aDNS := fingerprint("A", amplify.DNS)
	if a1 != a2 {
		t.Error("fingerprint not stable")
	}
	if a1 == b {
		t.Error("different booters share a fingerprint")
	}
	if a1 == aDNS {
		t.Error("different vectors share a fingerprint")
	}
}

func TestDeterministicReconstruction(t *testing.T) {
	run := func() []Observation {
		dep, eng, _ := testSetup(t)
		svc, _ := booter.ServiceByName("A")
		atk, _ := eng.Launch(booter.Order{
			Service: svc, Vector: amplify.NTP,
			Target:   netip.MustParseAddr("203.0.113.7"),
			Duration: 60 * time.Second,
		})
		dep.ObserveAttack(atk, hpStart)
		return dep.Reconstruct()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("observation %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func BenchmarkReconstruct(b *testing.B) {
	dep, eng, _ := testSetup(b)
	svc, _ := booter.ServiceByName("A")
	for i := 0; i < 20; i++ {
		atk, err := eng.Launch(booter.Order{
			Service: svc, Vector: amplify.NTP,
			Target:   netip.AddrFrom4([4]byte{198, 51, 100, byte(i)}),
			Duration: 60 * time.Second,
		})
		if err != nil {
			b.Fatal(err)
		}
		dep.ObserveAttack(atk, hpStart.Add(time.Duration(i)*time.Hour))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = dep.Reconstruct()
	}
}
