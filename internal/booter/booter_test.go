package booter

import (
	"net/netip"
	"testing"
	"time"

	"booterscope/internal/amplify"
	"booterscope/internal/reflector"
)

var victim = netip.MustParseAddr("203.0.113.10")

func testPools() map[amplify.Vector]*reflector.Pool {
	return map[amplify.Vector]*reflector.Pool{
		amplify.NTP:       reflector.NewPool(amplify.NTP, 50000, 200, 1),
		amplify.DNS:       reflector.NewPool(amplify.DNS, 30000, 200, 1),
		amplify.CLDAP:     reflector.NewPool(amplify.CLDAP, 20000, 200, 1),
		amplify.Memcached: reflector.NewPool(amplify.Memcached, 5000, 50, 1),
	}
}

func TestCatalogMatchesTable1(t *testing.T) {
	cat := Catalog()
	if len(cat) != 4 {
		t.Fatalf("catalog size = %d", len(cat))
	}
	byName := map[string]*Service{}
	for _, s := range cat {
		byName[s.Name] = s
	}
	// Seizure status: A and B seized, C and D not.
	if !byName["A"].SeizedByFBI || !byName["B"].SeizedByFBI {
		t.Error("A and B must be marked seized")
	}
	if byName["C"].SeizedByFBI || byName["D"].SeizedByFBI {
		t.Error("C and D must not be seized")
	}
	// Prices from Table 1.
	if byName["A"].PriceNonVIP != 8.00 || byName["A"].PriceVIP != 250 {
		t.Errorf("A prices = %v/%v", byName["A"].PriceNonVIP, byName["A"].PriceVIP)
	}
	if byName["B"].PriceNonVIP != 19.83 || byName["B"].PriceVIP != 178.84 {
		t.Errorf("B prices = %v/%v", byName["B"].PriceNonVIP, byName["B"].PriceVIP)
	}
	// Protocol support: A and B offer all four vectors; C and D only NTP+DNS.
	for _, name := range []string{"A", "B"} {
		for _, v := range []amplify.Vector{amplify.NTP, amplify.DNS, amplify.CLDAP, amplify.Memcached} {
			if !byName[name].Supports(v) {
				t.Errorf("booter %s should support %v", name, v)
			}
		}
	}
	for _, name := range []string{"C", "D"} {
		if byName[name].Supports(amplify.CLDAP) || byName[name].Supports(amplify.Memcached) {
			t.Errorf("booter %s should not support CLDAP/memcached", name)
		}
	}
	// Only A has a pre-registered backup domain.
	if byName["A"].BackupDomain == "" {
		t.Error("booter A needs a backup domain")
	}
	if byName["B"].BackupDomain != "" {
		t.Error("booter B should have no backup domain")
	}
}

func TestServiceByName(t *testing.T) {
	s, err := ServiceByName("B")
	if err != nil || s.Name != "B" {
		t.Errorf("ServiceByName(B) = %v, %v", s, err)
	}
	if _, err := ServiceByName("Z"); err == nil {
		t.Error("unknown service should fail")
	}
}

func TestVectorsStableOrder(t *testing.T) {
	s, _ := ServiceByName("B")
	v := s.Vectors()
	if len(v) != 4 || v[0] != amplify.NTP || v[3] != amplify.Memcached {
		t.Errorf("vectors = %v", v)
	}
}

func TestTierString(t *testing.T) {
	if NonVIP.String() != "non-VIP" || VIP.String() != "VIP" {
		t.Error("tier names wrong")
	}
}

func TestLaunchValidation(t *testing.T) {
	e := NewEngine(testPools(), 7)
	c, _ := ServiceByName("C")
	if _, err := e.Launch(Order{Service: c, Vector: amplify.Memcached, Duration: time.Minute, Target: victim}); err != errUnsupportedVector {
		t.Errorf("unsupported vector err = %v", err)
	}
	if _, err := e.Launch(Order{Service: c, Vector: amplify.NTP, Duration: 0, Target: victim}); err != errBadDuration {
		t.Errorf("zero duration err = %v", err)
	}
	// C offers a VIP price but no VIP-rated vector capability.
	if _, err := e.Launch(Order{Service: c, Vector: amplify.NTP, Tier: VIP, Duration: time.Minute, Target: victim}); err == nil {
		t.Error("VIP on a vector without VIP capability should fail")
	}
}

func TestNonVIPNTPAttackEnvelope(t *testing.T) {
	e := NewEngine(testPools(), 7)
	a4, _ := ServiceByName("A")
	atk, err := e.Launch(Order{Service: a4, Vector: amplify.NTP, Duration: 120 * time.Second, Target: victim})
	if err != nil {
		t.Fatal(err)
	}
	if atk.seconds != 120 {
		t.Errorf("seconds = %d", atk.seconds)
	}
	var rates []float64
	var reflectors int
	for {
		em, ok := atk.Next()
		if !ok {
			break
		}
		rates = append(rates, float64(em.TotalBytes)*8/1e6)
		if em.ReflectorCount() > reflectors {
			reflectors = em.ReflectorCount()
		}
		if em.TotalPackets == 0 {
			t.Fatal("second with zero packets")
		}
	}
	if len(rates) != 120 {
		t.Fatalf("emissions = %d", len(rates))
	}
	var peak, sum float64
	for _, r := range rates {
		if r > peak {
			peak = r
		}
		sum += r
	}
	mean := sum / float64(len(rates))
	// Booter A NTP: mean ~2500 Mbps, peak <= 7078 Mbps.
	if mean < 1200 || mean > 4500 {
		t.Errorf("mean rate = %.0f Mbps", mean)
	}
	if peak > 7078.001 {
		t.Errorf("peak rate = %.0f Mbps exceeds capability", peak)
	}
	// Ramp-up: first second well below the mean.
	if rates[0] > mean {
		t.Errorf("first second %.0f Mbps, no ramp-up", rates[0])
	}
	// Reflector count in the study's non-VIP range (~100..1000).
	if reflectors < 100 || reflectors > 1000 {
		t.Errorf("reflectors = %d", reflectors)
	}
}

func TestCLDAPUsesManyMoreReflectors(t *testing.T) {
	e := NewEngine(testPools(), 7)
	b, _ := ServiceByName("B")
	ntp, err := e.Launch(Order{Service: b, Vector: amplify.NTP, Duration: 10 * time.Second, Target: victim})
	if err != nil {
		t.Fatal(err)
	}
	cldap, err := e.Launch(Order{Service: b, Vector: amplify.CLDAP, Duration: 10 * time.Second, Target: victim})
	if err != nil {
		t.Fatal(err)
	}
	if len(cldap.Reflectors) != 3519 {
		t.Errorf("CLDAP reflectors = %d, want 3519", len(cldap.Reflectors))
	}
	if len(ntp.Reflectors) >= len(cldap.Reflectors) {
		t.Error("NTP should use far fewer reflectors than CLDAP")
	}
	// CLDAP also spreads over more origin ASes.
	if reflector.UniqueASes(cldap.Reflectors) <= reflector.UniqueASes(ntp.Reflectors) {
		t.Error("CLDAP should span more ASes")
	}
}

func TestVIPSameReflectorsHigherRate(t *testing.T) {
	e := NewEngine(testPools(), 7)
	b, _ := ServiceByName("B")
	nonvip, err := e.Launch(Order{Service: b, Vector: amplify.NTP, Tier: NonVIP, Duration: 60 * time.Second, Target: victim})
	if err != nil {
		t.Fatal(err)
	}
	vip, err := e.Launch(Order{Service: b, Vector: amplify.NTP, Tier: VIP, Duration: 60 * time.Second, Target: victim})
	if err != nil {
		t.Fatal(err)
	}
	// Same working set: identical reflectors (paper: "VIP and non-VIP use
	// the same set of reflectors").
	if reflector.Overlap(nonvip.Reflectors, vip.Reflectors) != 1 {
		t.Error("VIP must reuse the non-VIP reflector set")
	}
	ratePeak := func(a *Attack) (peakMbps float64, peakPPS uint64) {
		for {
			em, ok := a.Next()
			if !ok {
				return
			}
			if mbps := float64(em.TotalBytes) * 8 / 1e6; mbps > peakMbps {
				peakMbps = mbps
			}
			if em.TotalPackets > peakPPS {
				peakPPS = em.TotalPackets
			}
		}
	}
	nvPeak, nvPPS := ratePeak(nonvip)
	vPeak, vPPS := ratePeak(vip)
	if vPeak < 2*nvPeak {
		t.Errorf("VIP peak %.0f vs non-VIP %.0f — premium should be much faster", vPeak, nvPeak)
	}
	if vPeak > 20000.1 {
		t.Errorf("VIP peak %.0f exceeds 20 Gbps ceiling", vPeak)
	}
	if vPPS <= nvPPS {
		t.Errorf("VIP pps %d <= non-VIP %d; difference must come from packet rate", vPPS, nvPPS)
	}
}

func TestVIPWellBelowAdvertised(t *testing.T) {
	// The paper: VIP delivers roughly 25% of the advertised 80 Gbps.
	e := NewEngine(testPools(), 7)
	b, _ := ServiceByName("B")
	vip, err := e.Launch(Order{Service: b, Vector: amplify.NTP, Tier: VIP, Duration: 300 * time.Second, Target: victim})
	if err != nil {
		t.Fatal(err)
	}
	var peak float64
	for {
		em, ok := vip.Next()
		if !ok {
			break
		}
		if mbps := float64(em.TotalBytes) * 8 / 1e6; mbps > peak {
			peak = mbps
		}
	}
	advertised := 80000.0
	if ratio := peak / advertised; ratio > 0.35 {
		t.Errorf("VIP delivers %.0f%% of advertised rate; paper saw ~25%%", ratio*100)
	}
}

func TestSameDayAttacksShareReflectors(t *testing.T) {
	e := NewEngine(testPools(), 7)
	b, _ := ServiceByName("B")
	a1, _ := e.Launch(Order{Service: b, Vector: amplify.NTP, Duration: time.Second, Target: victim})
	a2, _ := e.Launch(Order{Service: b, Vector: amplify.NTP, Duration: time.Second, Target: victim})
	if reflector.Overlap(a1.Reflectors, a2.Reflectors) != 1 {
		t.Error("same-day attacks must reuse the same reflector set")
	}
}

func TestChurnAndSwap(t *testing.T) {
	e := NewEngine(testPools(), 7)
	b, _ := ServiceByName("B")
	a1, _ := e.Launch(Order{Service: b, Vector: amplify.NTP, Duration: time.Second, Target: victim})
	before := append([]reflector.Reflector(nil), a1.Reflectors...)

	e.AdvanceDays(14)
	a2, _ := e.Launch(Order{Service: b, Vector: amplify.NTP, Duration: time.Second, Target: victim})
	ov := reflector.Overlap(before, a2.Reflectors)
	if ov <= 0.3 || ov >= 0.95 {
		t.Errorf("two-week overlap = %.2f, want moderate churn", ov)
	}

	if err := e.SwapSet(b, amplify.NTP); err != nil {
		t.Fatal(err)
	}
	a3, _ := e.Launch(Order{Service: b, Vector: amplify.NTP, Duration: time.Second, Target: victim})
	if ov := reflector.Overlap(before, a3.Reflectors); ov > 0.05 {
		t.Errorf("post-swap overlap = %.2f, want near 0", ov)
	}
}

func TestSeizureAndDomainLifecycle(t *testing.T) {
	a4, _ := ServiceByName("A")
	b, _ := ServiceByName("B")
	// Fresh catalog copies start seized (historical state). Reset to
	// pre-takedown and replay.
	a4.SeizedByFBI = false
	b.SeizedByFBI = false
	if a4.activeDomain() != "booter-a.com" {
		t.Errorf("A domain = %q", a4.activeDomain())
	}
	a4.Seize()
	b.Seize()
	if a4.activeDomain() != "booter-a-reloaded.net" {
		t.Errorf("A post-seizure domain = %q; backup should activate", a4.activeDomain())
	}
	if b.activeDomain() != "" {
		t.Errorf("B post-seizure domain = %q; B had no backup", b.activeDomain())
	}
}

func TestEmissionSourcesConsistent(t *testing.T) {
	e := NewEngine(testPools(), 9)
	a4, _ := ServiceByName("A")
	atk, _ := e.Launch(Order{Service: a4, Vector: amplify.NTP, Duration: 5 * time.Second, Target: victim})
	for {
		em, ok := atk.Next()
		if !ok {
			break
		}
		var bytes, pkts uint64
		for _, src := range em.Sources {
			bytes += src.Bytes
			pkts += src.Packets
		}
		if bytes != em.TotalBytes || pkts != em.TotalPackets {
			t.Fatalf("per-AS sums %d/%d != totals %d/%d", bytes, pkts, em.TotalBytes, em.TotalPackets)
		}
		if len(em.Sources) != len(em.ReflectorsByAS) {
			t.Fatalf("AS groups %d != reflector AS map %d", len(em.Sources), len(em.ReflectorsByAS))
		}
	}
}

func TestDeterministicAttack(t *testing.T) {
	run := func() []uint64 {
		e := NewEngine(testPools(), 11)
		a4, _ := ServiceByName("A")
		atk, _ := e.Launch(Order{Service: a4, Vector: amplify.NTP, Duration: 20 * time.Second, Target: victim})
		var out []uint64
		for {
			em, ok := atk.Next()
			if !ok {
				break
			}
			out = append(out, em.TotalBytes)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("second %d differs: %d vs %d", i, a[i], b[i])
		}
	}
}

func BenchmarkAttackSecond(b *testing.B) {
	e := NewEngine(testPools(), 1)
	svc, _ := ServiceByName("B")
	atk, err := e.Launch(Order{Service: svc, Vector: amplify.CLDAP, Duration: time.Duration(b.N+10) * time.Second, Target: victim})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := atk.Next(); !ok {
			b.Fatal("attack ended early")
		}
	}
}
