package netflow

import (
	"net/netip"
	"testing"
	"time"

	"booterscope/internal/flow"
)

var (
	boot = time.Date(2018, 9, 1, 0, 0, 0, 0, time.UTC)
	now  = time.Date(2018, 12, 19, 10, 0, 0, 0, time.UTC)
)

func sampleRecords(n int) []flow.Record {
	recs := make([]flow.Record, n)
	for i := range recs {
		recs[i] = flow.Record{
			Key: flow.Key{
				Src:      netip.AddrFrom4([4]byte{10, 0, byte(i >> 8), byte(i)}),
				Dst:      netip.MustParseAddr("192.0.2.9"),
				SrcPort:  123,
				DstPort:  uint16(40000 + i),
				Protocol: 17,
			},
			Packets:      uint64(100 + i),
			Bytes:        uint64(48600 + i),
			Start:        now.Add(-time.Minute),
			End:          now,
			SrcAS:        uint32(64500 + i),
			DstAS:        64999,
			SamplingRate: 1,
		}
	}
	return recs
}

func TestV5RoundTrip(t *testing.T) {
	e := &V5Exporter{BootTime: boot}
	recs := sampleRecords(3)
	pkt, err := e.EncodeV5(recs, now)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := Version(pkt); v != 5 {
		t.Fatalf("version = %d", v)
	}
	dec, err := DecodeV5(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Records) != 3 {
		t.Fatalf("records = %d", len(dec.Records))
	}
	for i, r := range dec.Records {
		want := recs[i]
		if r.Src != want.Src || r.Dst != want.Dst {
			t.Errorf("rec %d addrs = %v->%v", i, r.Src, r.Dst)
		}
		if r.Packets != want.Packets || r.Bytes != want.Bytes {
			t.Errorf("rec %d counters = %d/%d", i, r.Packets, r.Bytes)
		}
		if r.SrcPort != want.SrcPort || r.DstPort != want.DstPort || r.Protocol != 17 {
			t.Errorf("rec %d l4 = %d->%d proto %d", i, r.SrcPort, r.DstPort, r.Protocol)
		}
		if r.SrcAS != want.SrcAS || r.DstAS != want.DstAS {
			t.Errorf("rec %d AS = %d->%d", i, r.SrcAS, r.DstAS)
		}
		if !r.Start.Equal(want.Start) || !r.End.Equal(want.End) {
			t.Errorf("rec %d times = %v..%v, want %v..%v", i, r.Start, r.End, want.Start, want.End)
		}
	}
	if dec.SamplingRate != 1 {
		t.Errorf("sampling = %d", dec.SamplingRate)
	}
}

func TestV5Sampling(t *testing.T) {
	e := &V5Exporter{BootTime: boot, SamplingRate: 1000}
	pkt, err := e.EncodeV5(sampleRecords(1), now)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeV5(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if dec.SamplingRate != 1000 {
		t.Errorf("sampling = %d", dec.SamplingRate)
	}
	if dec.Records[0].SamplingRate != 1000 {
		t.Errorf("record sampling = %d", dec.Records[0].SamplingRate)
	}
	if dec.Records[0].ScaledPackets() != dec.Records[0].Packets*1000 {
		t.Error("scaled packets wrong")
	}
}

func TestV5SamplingTooLarge(t *testing.T) {
	e := &V5Exporter{BootTime: boot, SamplingRate: 0x4000}
	if _, err := e.EncodeV5(sampleRecords(1), now); err != errNotSampled {
		t.Errorf("err = %v", err)
	}
}

func TestV5SequenceAdvances(t *testing.T) {
	e := &V5Exporter{BootTime: boot}
	p1, _ := e.EncodeV5(sampleRecords(3), now)
	p2, _ := e.EncodeV5(sampleRecords(2), now)
	d1, _ := DecodeV5(p1)
	d2, _ := DecodeV5(p2)
	if d1.Sequence != 0 || d2.Sequence != 3 {
		t.Errorf("sequences = %d, %d", d1.Sequence, d2.Sequence)
	}
}

func TestV5RecordLimits(t *testing.T) {
	e := &V5Exporter{BootTime: boot}
	if _, err := e.EncodeV5(nil, now); err != errTooMany {
		t.Errorf("empty err = %v", err)
	}
	if _, err := e.EncodeV5(sampleRecords(31), now); err != errTooMany {
		t.Errorf("31 records err = %v", err)
	}
	if _, err := e.EncodeV5(sampleRecords(30), now); err != nil {
		t.Errorf("30 records err = %v", err)
	}
}

func TestV5CounterClamp(t *testing.T) {
	recs := sampleRecords(1)
	recs[0].Bytes = 1 << 40
	e := &V5Exporter{BootTime: boot}
	pkt, err := e.EncodeV5(recs, now)
	if err != nil {
		t.Fatal(err)
	}
	dec, _ := DecodeV5(pkt)
	if dec.Records[0].Bytes != 0xffffffff {
		t.Errorf("clamped bytes = %d", dec.Records[0].Bytes)
	}
}

func TestV5DecodeErrors(t *testing.T) {
	if _, err := DecodeV5([]byte{0, 5}); err != errTruncated {
		t.Errorf("short err = %v", err)
	}
	e := &V5Exporter{BootTime: boot}
	pkt, _ := e.EncodeV5(sampleRecords(2), now)
	pkt[1] = 9 // corrupt version
	if _, err := DecodeV5(pkt); err != errBadVersion {
		t.Errorf("version err = %v", err)
	}
	pkt[1] = 5
	if _, err := DecodeV5(pkt[:v5HeaderLen+10]); err != errTruncated {
		t.Errorf("truncated records err = %v", err)
	}
}

func TestV9RoundTrip(t *testing.T) {
	e := &V9Exporter{SourceID: 7, BootTime: boot}
	c := NewV9Collector()
	recs := sampleRecords(5)
	recs[2].Packets = 1 << 40 // v9 uses 64-bit counters: no clamping
	pkt, err := e.EncodeV9(recs, now)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := Version(pkt); v != 9 {
		t.Fatalf("version = %d", v)
	}
	got, err := c.DecodeV9(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("records = %d", len(got))
	}
	for i, r := range got {
		want := recs[i]
		if r.Src != want.Src || r.Dst != want.Dst || r.SrcPort != want.SrcPort ||
			r.DstPort != want.DstPort || r.Protocol != want.Protocol {
			t.Errorf("rec %d key = %+v", i, r.Key)
		}
		if r.Packets != want.Packets || r.Bytes != want.Bytes {
			t.Errorf("rec %d counters = %d/%d want %d/%d", i, r.Packets, r.Bytes, want.Packets, want.Bytes)
		}
		if r.SrcAS != want.SrcAS || r.DstAS != want.DstAS {
			t.Errorf("rec %d AS = %d/%d", i, r.SrcAS, r.DstAS)
		}
		if !r.Start.Equal(want.Start) || !r.End.Equal(want.End) {
			t.Errorf("rec %d times = %v..%v", i, r.Start, r.End)
		}
	}
}

func TestV9RequiresTemplate(t *testing.T) {
	e := &V9Exporter{SourceID: 7, BootTime: boot, TemplateRefresh: 100}
	recs := sampleRecords(1)
	first, err := e.EncodeV9(recs, now) // carries the template
	if err != nil {
		t.Fatal(err)
	}
	second, err := e.EncodeV9(recs, now) // data only
	if err != nil {
		t.Fatal(err)
	}
	if len(second) >= len(first) {
		t.Errorf("data-only packet (%d) not smaller than template packet (%d)", len(second), len(first))
	}
	fresh := NewV9Collector()
	if _, err := fresh.DecodeV9(second); err != errNoTemplate {
		t.Errorf("decode without template err = %v", err)
	}
	if _, err := fresh.DecodeV9(first); err != nil {
		t.Fatal(err)
	}
	got, err := fresh.DecodeV9(second)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Errorf("records = %d", len(got))
	}
}

func TestV9TemplatesPerSourceID(t *testing.T) {
	eA := &V9Exporter{SourceID: 1, BootTime: boot, TemplateRefresh: 100}
	eB := &V9Exporter{SourceID: 2, BootTime: boot, TemplateRefresh: 100}
	c := NewV9Collector()
	recs := sampleRecords(1)
	pktA, _ := eA.EncodeV9(recs, now)
	if _, err := c.DecodeV9(pktA); err != nil {
		t.Fatal(err)
	}
	// Source B's template was never seen; its data must not decode via A's.
	_, _ = eB.EncodeV9(recs, now) // consume template emission
	pktB, _ := eB.EncodeV9(recs, now)
	if _, err := c.DecodeV9(pktB); err != errNoTemplate {
		t.Errorf("cross-source decode err = %v", err)
	}
}

func TestV9SequenceAdvances(t *testing.T) {
	e := &V9Exporter{SourceID: 7, BootTime: boot}
	c := NewV9Collector()
	for want := 0; want < 3; want++ {
		pkt, err := e.EncodeV9(sampleRecords(2), now)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.DecodeV9(pkt); err != nil {
			t.Fatal(err)
		}
		// Sequence lives at offset 12.
		got := int(pkt[12])<<24 | int(pkt[13])<<16 | int(pkt[14])<<8 | int(pkt[15])
		if got != want {
			t.Errorf("sequence = %d, want %d", got, want)
		}
	}
}

func TestV9EmptyRecords(t *testing.T) {
	e := &V9Exporter{BootTime: boot}
	if _, err := e.EncodeV9(nil, now); err == nil {
		t.Error("expected error for empty record set")
	}
}

func TestV9MalformedFlowset(t *testing.T) {
	e := &V9Exporter{SourceID: 7, BootTime: boot}
	c := NewV9Collector()
	pkt, _ := e.EncodeV9(sampleRecords(1), now)
	pkt[v9HeaderLen+2] = 0 // zero the first flowset length
	pkt[v9HeaderLen+3] = 1
	if _, err := c.DecodeV9(pkt); err == nil {
		t.Error("expected error for malformed flowset")
	}
}

func TestVersionSniff(t *testing.T) {
	if _, err := Version([]byte{0}); err != errTruncated {
		t.Errorf("short err = %v", err)
	}
	if _, err := Version([]byte{0, 7}); err == nil {
		t.Error("expected error for version 7")
	}
}

func BenchmarkEncodeV5(b *testing.B) {
	e := &V5Exporter{BootTime: boot}
	recs := sampleRecords(30)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := e.EncodeV5(recs, now); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeV9(b *testing.B) {
	e := &V9Exporter{SourceID: 7, BootTime: boot, TemplateRefresh: 1 << 30}
	c := NewV9Collector()
	tpl, _ := e.EncodeV9(sampleRecords(1), now)
	if _, err := c.DecodeV9(tpl); err != nil {
		b.Fatal(err)
	}
	pkt, _ := e.EncodeV9(sampleRecords(30), now)
	b.ReportAllocs()
	b.SetBytes(int64(len(pkt)))
	for i := 0; i < b.N; i++ {
		if _, err := c.DecodeV9(pkt); err != nil {
			b.Fatal(err)
		}
	}
}

func TestV9SamplingOptions(t *testing.T) {
	e := &V9Exporter{SourceID: 7, BootTime: boot, SamplingRate: 1000}
	c := NewV9Collector()
	pkt, err := e.EncodeV9(sampleRecords(3), now)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := c.DecodeV9(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("records = %d", len(recs))
	}
	if c.samplingRate(7) != 1000 {
		t.Errorf("collector sampling rate = %d", c.samplingRate(7))
	}
	for i, r := range recs {
		if r.SamplingRate != 1000 {
			t.Errorf("record %d sampling = %d", i, r.SamplingRate)
		}
		if r.ScaledPackets() != r.Packets*1000 {
			t.Errorf("record %d scaling broken", i)
		}
	}
	// Data-only packets (no template refresh) keep the learned rate.
	pkt2, err := e.EncodeV9(sampleRecords(2), now)
	if err != nil {
		t.Fatal(err)
	}
	recs2, err := c.DecodeV9(pkt2)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs2 {
		if r.SamplingRate != 1000 {
			t.Errorf("follow-up record sampling = %d", r.SamplingRate)
		}
	}
}

func TestV9SamplingScopedBySource(t *testing.T) {
	sampled := &V9Exporter{SourceID: 1, BootTime: boot, SamplingRate: 500}
	plain := &V9Exporter{SourceID: 2, BootTime: boot}
	c := NewV9Collector()
	p1, _ := sampled.EncodeV9(sampleRecords(1), now)
	p2, _ := plain.EncodeV9(sampleRecords(1), now)
	if _, err := c.DecodeV9(p1); err != nil {
		t.Fatal(err)
	}
	recs, err := c.DecodeV9(p2)
	if err != nil {
		t.Fatal(err)
	}
	if c.samplingRate(1) != 500 || c.samplingRate(2) != 1 {
		t.Errorf("rates = %d/%d", c.samplingRate(1), c.samplingRate(2))
	}
	if recs[0].SamplingRate != 1 {
		t.Errorf("unsampled source's record got rate %d", recs[0].SamplingRate)
	}
}

func TestV9UnsampledHasNoOptions(t *testing.T) {
	withOpts := &V9Exporter{SourceID: 7, BootTime: boot, SamplingRate: 100}
	without := &V9Exporter{SourceID: 7, BootTime: boot}
	p1, _ := withOpts.EncodeV9(sampleRecords(1), now)
	p2, _ := without.EncodeV9(sampleRecords(1), now)
	if len(p2) >= len(p1) {
		t.Errorf("unsampled packet (%d) not smaller than sampled (%d)", len(p2), len(p1))
	}
}
