package ipfix

import (
	"net/netip"
	"sync"
	"testing"
	"time"

	"booterscope/internal/flow"
)

var exportTime = time.Date(2018, 12, 19, 12, 0, 0, 0, time.UTC)

func sampleRecords(n int) []flow.Record {
	recs := make([]flow.Record, n)
	for i := range recs {
		recs[i] = flow.Record{
			Key: flow.Key{
				Src:      netip.AddrFrom4([4]byte{10, 1, byte(i >> 8), byte(i)}),
				Dst:      netip.MustParseAddr("203.0.113.50"),
				SrcPort:  123,
				DstPort:  uint16(50000 + i),
				Protocol: 17,
			},
			Packets:      uint64(1000 + i),
			Bytes:        uint64(486000 + i),
			Start:        exportTime.Add(-90 * time.Second),
			End:          exportTime.Add(-30 * time.Second),
			SrcAS:        64512,
			DstAS:        64513,
			SamplingRate: 10000,
		}
	}
	return recs
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	e := &Encoder{DomainID: 99}
	d := NewDecoder()
	recs := sampleRecords(4)
	msg, err := e.Encode(recs, exportTime)
	if err != nil {
		t.Fatal(err)
	}
	got, err := d.Decode(msg)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("records = %d", len(got))
	}
	for i, r := range got {
		want := recs[i]
		if r.Key != want.Key {
			t.Errorf("rec %d key = %+v", i, r.Key)
		}
		if r.Packets != want.Packets || r.Bytes != want.Bytes {
			t.Errorf("rec %d counters = %d/%d", i, r.Packets, r.Bytes)
		}
		if !r.Start.Equal(want.Start) || !r.End.Equal(want.End) {
			t.Errorf("rec %d times = %v..%v", i, r.Start, r.End)
		}
		if r.SamplingRate != 10000 {
			t.Errorf("rec %d sampling = %d", i, r.SamplingRate)
		}
		if r.SrcAS != 64512 || r.DstAS != 64513 {
			t.Errorf("rec %d AS = %d/%d", i, r.SrcAS, r.DstAS)
		}
	}
}

func TestMessageLengthField(t *testing.T) {
	e := &Encoder{DomainID: 1}
	msg, err := e.Encode(sampleRecords(2), exportTime)
	if err != nil {
		t.Fatal(err)
	}
	gotLen := int(msg[2])<<8 | int(msg[3])
	if gotLen != len(msg) {
		t.Errorf("length field = %d, actual %d", gotLen, len(msg))
	}
	if v := int(msg[0])<<8 | int(msg[1]); v != versionIPFIX {
		t.Errorf("version = %d", v)
	}
}

func TestSequenceCountsRecords(t *testing.T) {
	// IPFIX sequence counts data records, not messages (RFC 7011 §3.1).
	e := &Encoder{DomainID: 1}
	m1, _ := e.Encode(sampleRecords(3), exportTime)
	m2, _ := e.Encode(sampleRecords(2), exportTime)
	seq1 := uint32(m1[8])<<24 | uint32(m1[9])<<16 | uint32(m1[10])<<8 | uint32(m1[11])
	seq2 := uint32(m2[8])<<24 | uint32(m2[9])<<16 | uint32(m2[10])<<8 | uint32(m2[11])
	if seq1 != 0 || seq2 != 3 {
		t.Errorf("sequences = %d, %d; want 0, 3", seq1, seq2)
	}
}

func TestTemplateRefreshCycle(t *testing.T) {
	e := &Encoder{DomainID: 1, TemplateRefresh: 3}
	sizes := make([]int, 6)
	for i := range sizes {
		m, err := e.Encode(sampleRecords(1), exportTime)
		if err != nil {
			t.Fatal(err)
		}
		sizes[i] = len(m)
	}
	// Messages 0 and 3 carry the template and must be larger.
	if !(sizes[0] > sizes[1] && sizes[3] > sizes[4] && sizes[0] == sizes[3]) {
		t.Errorf("sizes = %v; template refresh cycle broken", sizes)
	}
}

func TestDecodeWithoutTemplate(t *testing.T) {
	e := &Encoder{DomainID: 1, TemplateRefresh: 100}
	_, _ = e.Encode(sampleRecords(1), exportTime) // message 0 has template
	dataOnly, _ := e.Encode(sampleRecords(1), exportTime)
	d := NewDecoder()
	if _, err := d.Decode(dataOnly); err != errNoTemplate {
		t.Errorf("err = %v, want ErrNoTemplate", err)
	}
}

func TestTemplatesScopedByDomain(t *testing.T) {
	eA := &Encoder{DomainID: 1, TemplateRefresh: 100}
	eB := &Encoder{DomainID: 2, TemplateRefresh: 100}
	d := NewDecoder()
	withTpl, _ := eA.Encode(sampleRecords(1), exportTime)
	if _, err := d.Decode(withTpl); err != nil {
		t.Fatal(err)
	}
	_, _ = eB.Encode(sampleRecords(1), exportTime)
	dataB, _ := eB.Encode(sampleRecords(1), exportTime)
	if _, err := d.Decode(dataB); err != errNoTemplate {
		t.Errorf("cross-domain decode err = %v", err)
	}
}

func TestDecodeErrors(t *testing.T) {
	d := NewDecoder()
	if _, err := d.Decode([]byte{0, 10}); err != errTruncated {
		t.Errorf("short err = %v", err)
	}
	e := &Encoder{DomainID: 1}
	msg, _ := e.Encode(sampleRecords(1), exportTime)
	bad := append([]byte(nil), msg...)
	bad[0], bad[1] = 0, 9 // NetFlow v9, not IPFIX
	if _, err := d.Decode(bad); err != errBadVersion {
		t.Errorf("version err = %v", err)
	}
	short := append([]byte(nil), msg...)
	short[2], short[3] = 0xff, 0xff // length exceeds buffer
	if _, err := d.Decode(short); err != errTruncated {
		t.Errorf("length err = %v", err)
	}
	corrupt := append([]byte(nil), msg...)
	corrupt[headerLen+2], corrupt[headerLen+3] = 0, 1 // set length < 4
	if _, err := d.Decode(corrupt); err != errBadSet {
		t.Errorf("set err = %v", err)
	}
}

func TestZeroSamplingRateNormalized(t *testing.T) {
	e := &Encoder{DomainID: 1}
	recs := sampleRecords(1)
	recs[0].SamplingRate = 0
	msg, _ := e.Encode(recs, exportTime)
	d := NewDecoder()
	got, err := d.Decode(msg)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].SamplingRate != 1 {
		t.Errorf("sampling = %d, want 1", got[0].SamplingRate)
	}
}

func TestUDPExportCollect(t *testing.T) {
	col, err := NewCollector("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()

	var mu sync.Mutex
	var received []flow.Record
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = col.Run(func(recs []flow.Record) {
			mu.Lock()
			received = append(received, recs...)
			mu.Unlock()
		})
	}()

	exp, err := NewExporter(col.Addr().String(), 7)
	if err != nil {
		t.Fatal(err)
	}
	defer exp.Close()

	want := sampleRecords(5)
	for i := 0; i < 3; i++ {
		if err := exp.Export(want, exportTime); err != nil {
			t.Fatal(err)
		}
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := len(received)
		mu.Unlock()
		if n >= 15 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("received %d records, want 15", n)
		}
		time.Sleep(10 * time.Millisecond)
	}
	col.Close()
	<-done

	mu.Lock()
	defer mu.Unlock()
	if received[0].Key != want[0].Key {
		t.Errorf("first record key = %+v", received[0].Key)
	}
}

func BenchmarkEncode(b *testing.B) {
	e := &Encoder{DomainID: 1, TemplateRefresh: 1 << 30}
	recs := sampleRecords(50)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := e.Encode(recs, exportTime); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecode(b *testing.B) {
	e := &Encoder{DomainID: 1}
	d := NewDecoder()
	msg, _ := e.Encode(sampleRecords(50), exportTime)
	b.ReportAllocs()
	b.SetBytes(int64(len(msg)))
	for i := 0; i < b.N; i++ {
		if _, err := d.Decode(msg); err != nil {
			b.Fatal(err)
		}
	}
}
