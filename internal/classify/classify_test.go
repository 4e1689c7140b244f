package classify

import (
	"fmt"
	"net/netip"
	"testing"
	"time"

	"booterscope/internal/flow"
	"booterscope/internal/packet"
)

var t0 = time.Date(2018, 12, 1, 10, 0, 0, 0, time.UTC)

func ntpRec(src, dst string, pktSize int, pkts uint64, start time.Time) flow.Record {
	return flow.Record{
		Key: flow.Key{
			Src:      netip.MustParseAddr(src),
			Dst:      netip.MustParseAddr(dst),
			SrcPort:  123,
			DstPort:  44000,
			Protocol: packet.IPProtoUDP,
		},
		Packets:      pkts,
		Bytes:        pkts * uint64(pktSize),
		Start:        start,
		End:          start.Add(time.Second),
		SamplingRate: 1,
	}
}

func TestIsNTPFlow(t *testing.T) {
	r := ntpRec("1.1.1.1", "2.2.2.2", 486, 10, t0)
	if !isNTPFlow(&r) {
		t.Error("NTP flow not recognized")
	}
	r.SrcPort = 53
	if isNTPFlow(&r) {
		t.Error("DNS flow recognized as NTP")
	}
	r.SrcPort = 123
	r.Protocol = 6 // TCP
	if isNTPFlow(&r) {
		t.Error("TCP flow recognized as NTP")
	}
}

func TestOptimisticClassification(t *testing.T) {
	amplified := ntpRec("1.1.1.1", "2.2.2.2", 486, 10, t0)
	benign := ntpRec("1.1.1.1", "2.2.2.2", 76, 10, t0)
	if !isAmplifiedNTP(&amplified, Config{}) {
		t.Error("486-byte packets should classify as amplified")
	}
	if isAmplifiedNTP(&benign, Config{}) {
		t.Error("76-byte packets should not classify")
	}
	// Exactly at the threshold is NOT amplified (strictly larger).
	edge := ntpRec("1.1.1.1", "2.2.2.2", 200, 10, t0)
	if isAmplifiedNTP(&edge, Config{}) {
		t.Error("200-byte packets are not strictly above the threshold")
	}
	// Custom threshold.
	if !isAmplifiedNTP(&benign, Config{SizeThreshold: 50}) {
		t.Error("custom threshold ignored")
	}
}

func TestClassifierAdd(t *testing.T) {
	c := New(Config{})
	amplified := ntpRec("1.1.1.1", "2.2.2.2", 486, 10, t0)
	benign := ntpRec("1.1.1.1", "2.2.2.2", 76, 10, t0)
	dns := ntpRec("1.1.1.1", "3.3.3.3", 486, 10, t0)
	dns.SrcPort = 53
	if !c.Add(&amplified) {
		t.Error("amplified record rejected")
	}
	if c.Add(&benign) || c.Add(&dns) {
		t.Error("non-matching record accepted")
	}
	if len(c.Victims()) != 1 {
		t.Errorf("destinations = %d", len(c.Victims()))
	}
}

// bigAttack feeds an attack of `sources` amplifiers at `gbps` for one
// minute against dst.
func bigAttack(c *Classifier, dst string, sources int, gbps float64) {
	bytesPerSource := uint64(gbps * 1e9 / 8 * 60 / float64(sources))
	pkts := bytesPerSource / 486
	for i := 0; i < sources; i++ {
		src := fmt.Sprintf("11.%d.%d.%d", i>>16&0xff, i>>8&0xff, i&0xff)
		r := ntpRec(src, dst, 486, pkts, t0.Add(time.Duration(i%60)*time.Second))
		c.Add(&r)
	}
}

func TestVictimsAndConservativeFilter(t *testing.T) {
	c := New(Config{})
	// Big victim: 5 Gbps from 500 sources.
	bigAttack(c, "203.0.113.5", 500, 5)
	// Small victim: scanner-like, 3 sources, tiny rate.
	for i := 0; i < 3; i++ {
		r := ntpRec(fmt.Sprintf("12.0.0.%d", i+1), "203.0.113.6", 486, 5, t0)
		c.Add(&r)
	}
	// Mid victim: high rate but few sources (fails rule b).
	bigAttack(c, "203.0.113.7", 5, 3)

	victims := c.Victims()
	if len(victims) != 3 {
		t.Fatalf("victims = %d", len(victims))
	}
	// Sorted by peak rate: the 5 Gbps victim first.
	if victims[0].Addr != netip.MustParseAddr("203.0.113.5") {
		t.Errorf("top victim = %v", victims[0].Addr)
	}
	if victims[0].MaxGbps < 4 || victims[0].MaxGbps > 6 {
		t.Errorf("top victim rate = %.2f Gbps", victims[0].MaxGbps)
	}
	if !victims[0].Conservative {
		t.Error("5 Gbps/500-source victim should pass the conservative filter")
	}
	for _, v := range victims[1:] {
		if v.Conservative {
			t.Errorf("victim %v should fail the conservative filter", v.Addr)
		}
	}
	if victims[0].TotalSources != 500 {
		t.Errorf("total sources = %d", victims[0].TotalSources)
	}
}

func TestFilterStats(t *testing.T) {
	c := New(Config{})
	bigAttack(c, "203.0.113.5", 500, 5)  // passes both
	bigAttack(c, "203.0.113.7", 5, 3)    // rate only
	bigAttack(c, "203.0.113.8", 50, 0.1) // sources only
	for i := 0; i < 3; i++ {
		r := ntpRec(fmt.Sprintf("12.0.0.%d", i+1), "203.0.113.9", 486, 5, t0) // neither
		c.Add(&r)
	}
	// The peak rule: 2.6 Gbps from one amplifier in one minute and 20
	// amplifiers at a trickle in the next pass both rules here, because
	// each rule reads its own peak minute. No single victim-minute
	// passes both, so Figure 5's counter and the monitor see no attack.
	split := []flow.Record{ntpRec("13.0.0.1", "203.0.113.10", 486, 40_123_457, t0)} // 19.5 GB in a minute: 2.6 Gbps
	for i := 0; i < 20; i++ {
		split = append(split, ntpRec(fmt.Sprintf("13.0.1.%d", i+1), "203.0.113.10", 486, 1, t0.Add(time.Minute)))
	}
	counter, mon := NewAttackCounter(Config{}), NewMonitor(Config{})
	for i := range split {
		c.Add(&split[i])
		counter.Add(&split[i])
		if al := mon.Add(&split[i]); al != nil {
			t.Errorf("monitor alerted on the split victim: %+v", al)
		}
	}
	if got := counter.Series(); len(got) != 0 {
		t.Errorf("attack counter series %+v, want none", got)
	}
	var splitVictim Victim
	for _, v := range c.Victims() {
		if v.Addr == netip.MustParseAddr("203.0.113.10") {
			splitVictim = v
		}
	}
	if !splitVictim.Conservative || splitVictim.MaxGbps < 2.6 || splitVictim.MaxSources != 20 {
		t.Errorf("split victim %+v, want conservative at 2.6 Gbps and 20 sources", splitVictim)
	}

	fs := c.FilterStats()
	if fs.Optimistic != 5 {
		t.Fatalf("optimistic = %d", fs.Optimistic)
	}
	if fs.RateOnly != 3 {
		t.Errorf("rate only = %d", fs.RateOnly)
	}
	if fs.SourcesOnly != 3 {
		t.Errorf("sources only = %d", fs.SourcesOnly)
	}
	if fs.Conservative != 2 {
		t.Errorf("conservative = %d", fs.Conservative)
	}
	if got := fs.ReductionBoth(); got != 0.6 {
		t.Errorf("reduction both = %v", got)
	}
	if got := fs.ReductionRate(); got != 0.4 {
		t.Errorf("reduction rate = %v", got)
	}
	if got := fs.ReductionSources(); got != 0.4 {
		t.Errorf("reduction sources = %v", got)
	}
}

func TestFilterStatsEmpty(t *testing.T) {
	fs := New(Config{}).FilterStats()
	if fs.ReductionBoth() != 0 || fs.ReductionRate() != 0 || fs.ReductionSources() != 0 {
		t.Error("empty stats should report zero reductions")
	}
}

func TestSamplingAwareRates(t *testing.T) {
	// A sampled record must be scaled up before the rate test.
	c := New(Config{})
	r := ntpRec("11.0.0.1", "203.0.113.5", 486, 5000, t0)
	r.SamplingRate = 10000 // 5000 sampled pkts -> 50M actual -> ~24 GB/min
	c.Add(&r)
	// Add 10 more sources so the sources rule passes.
	for i := 0; i < 11; i++ {
		rr := ntpRec(fmt.Sprintf("11.0.1.%d", i+1), "203.0.113.5", 486, 100, t0)
		rr.SamplingRate = 10000
		c.Add(&rr)
	}
	victims := c.Victims()
	if len(victims) != 1 || !victims[0].Conservative {
		t.Fatalf("sampled attack not detected: %+v", victims)
	}
	if victims[0].MaxGbps < 1 {
		t.Errorf("scaled rate = %.3f Gbps", victims[0].MaxGbps)
	}
}

func TestAttackCounter(t *testing.T) {
	a := NewAttackCounter(Config{})
	// Hour 1: one real attack (2 Gbps, 100 sources) + one scanner.
	bytesPerSource := uint64(2e9 / 8 * 60 / 100)
	for i := 0; i < 100; i++ {
		r := ntpRec(fmt.Sprintf("13.0.%d.%d", i>>8, i&0xff), "203.0.113.20", 486, bytesPerSource/486, t0)
		a.Add(&r)
	}
	scan := ntpRec("14.0.0.1", "203.0.113.21", 486, 3, t0)
	a.Add(&scan)
	// Hour 2: a second victim.
	for i := 0; i < 100; i++ {
		r := ntpRec(fmt.Sprintf("13.1.%d.%d", i>>8, i&0xff), "203.0.113.22", 486, bytesPerSource/486, t0.Add(time.Hour))
		a.Add(&r)
	}
	series := a.Series()
	if len(series) != 2 {
		t.Fatalf("series hours = %d", len(series))
	}
	if series[0].Count != 1 || series[1].Count != 1 {
		t.Errorf("counts = %d, %d", series[0].Count, series[1].Count)
	}
	if !series[0].Hour.Equal(t0.Truncate(time.Hour)) {
		t.Errorf("hour = %v", series[0].Hour)
	}
}

func TestAttackCounterIgnoresBenign(t *testing.T) {
	a := NewAttackCounter(Config{})
	for i := 0; i < 1000; i++ {
		r := ntpRec(fmt.Sprintf("13.0.%d.%d", i>>8, i&0xff), "203.0.113.20", 76, 1000, t0)
		a.Add(&r)
	}
	if len(a.Series()) != 0 {
		t.Error("benign NTP counted as attack")
	}
}

func BenchmarkClassifierAdd(b *testing.B) {
	c := New(Config{})
	recs := make([]flow.Record, 256)
	for i := range recs {
		recs[i] = ntpRec(fmt.Sprintf("11.0.%d.%d", i>>8, i&0xff), "203.0.113.5", 486, 1000, t0)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(&recs[i%len(recs)])
	}
}
