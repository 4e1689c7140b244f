// Integration tests: end-to-end pipelines across module boundaries,
// checking that what one subsystem exports another one ingests without
// loss of analytical meaning.
package booterscope_test

import (
	"bytes"
	"io"
	"testing"
	"time"

	"booterscope/internal/amplify"
	"booterscope/internal/anon"
	"booterscope/internal/booter"
	"booterscope/internal/classify"
	"booterscope/internal/core"
	"booterscope/internal/flow"
	"booterscope/internal/ipfix"
	"booterscope/internal/netflow"
	"booterscope/internal/observatory"
	"booterscope/internal/packet"
	"booterscope/internal/pcap"
	"booterscope/internal/timeseries"
	"booterscope/internal/trafficgen"
)

// classifyRecs feeds recs to c as one columnar slab, the shape the
// classifier reads.
func classifyRecs(c *classify.Classifier, recs []flow.Record) {
	var cols flow.Columns
	for i := range recs {
		cols.AppendRecord(&recs[i])
	}
	for i := range recs {
		c.AddCols(&cols, i)
	}
}

// TestScenarioThroughNetFlowToClassifier pushes synthetic tier-2 traffic
// through the NetFlow v9 wire format and verifies the classifier sees
// the same victims as it does on the raw records.
func TestScenarioThroughNetFlowToClassifier(t *testing.T) {
	scenario := trafficgen.NewScenario(trafficgen.Config{
		Start: core.StudyStart, Days: 3, Takedown: core.TakedownDate,
		Seed: 5, Scale: 0.2,
	})
	var records []flow.Record
	for d := 0; d < 3; d++ {
		records = append(records, scenario.Day(trafficgen.KindTier2, d)...)
	}

	direct := classify.New(classify.Config{})
	classifyRecs(direct, records)

	exp := &netflow.V9Exporter{SourceID: 1, BootTime: core.StudyStart.Add(-time.Hour)}
	col := netflow.NewV9Collector()
	wire := classify.New(classify.Config{})
	for i := 0; i < len(records); i += 100 {
		end := i + 100
		if end > len(records) {
			end = len(records)
		}
		// v9 carries no sampling field in our template: normalize the
		// batch to unsampled semantics by pre-scaling.
		batch := make([]flow.Record, end-i)
		copy(batch, records[i:end])
		for j := range batch {
			batch[j].Packets = batch[j].ScaledPackets()
			batch[j].Bytes = batch[j].ScaledBytes()
			batch[j].SamplingRate = 1
		}
		pkt, err := exp.EncodeV9(batch, core.StudyStart)
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := col.DecodeV9(pkt)
		if err != nil {
			t.Fatal(err)
		}
		classifyRecs(wire, decoded)
	}

	if len(direct.Victims()) != len(wire.Victims()) {
		t.Errorf("victims direct=%d via wire=%d", len(direct.Victims()), len(wire.Victims()))
	}
	fsDirect, fsWire := direct.FilterStats(), wire.FilterStats()
	if fsDirect.Conservative != fsWire.Conservative {
		t.Errorf("conservative victims direct=%d wire=%d", fsDirect.Conservative, fsWire.Conservative)
	}
}

// TestIPFIXPreservesTakedownSignal encodes a takedown window through
// IPFIX and verifies the Welch analysis still fires on the decoded
// stream.
func TestIPFIXPreservesTakedownSignal(t *testing.T) {
	scenario := trafficgen.NewScenario(trafficgen.Config{
		Start: core.StudyStart, Days: 122, Takedown: core.TakedownDate,
		Seed: 5, Scale: 0.15,
	})
	enc := &ipfix.Encoder{DomainID: 9}
	dec := ipfix.NewDecoder()
	series := timeseries.NewDaily()
	for d := 0; d < 122; d++ {
		recs := scenario.Day(trafficgen.KindTier2, d)
		day := scenario.DayTime(d)
		for i := 0; i < len(recs); i += 200 {
			end := i + 200
			if end > len(recs) {
				end = len(recs)
			}
			msg, err := enc.Encode(recs[i:end], day)
			if err != nil {
				t.Fatal(err)
			}
			decoded, err := dec.Decode(msg)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range decoded {
				if r.Protocol == packet.IPProtoUDP && r.DstPort == amplify.Memcached.Port() {
					series.Add(day, float64(r.ScaledPackets()))
				}
			}
		}
	}
	metrics, err := timeseries.AnalyzeTakedown(series, core.TakedownDate, "memcached via IPFIX")
	if err != nil {
		t.Fatal(err)
	}
	if !metrics.WT30.Significant {
		t.Errorf("takedown signal lost through IPFIX: p=%v", metrics.WT30.Welch.P)
	}
	if metrics.WT30.Reduction > 0.5 {
		t.Errorf("reduction = %.2f, want strong memcached drop", metrics.WT30.Reduction)
	}
}

// TestAnonymizationPreservesVictimStructure verifies that Crypto-PAn
// anonymized records yield the same victim counts (addresses change,
// grouping structure survives).
func TestAnonymizationPreservesVictimStructure(t *testing.T) {
	scenario := trafficgen.NewScenario(trafficgen.Config{
		Start: core.StudyStart, Days: 2, Takedown: core.TakedownDate,
		Seed: 6, Scale: 0.2,
	})
	key := make([]byte, 32)
	for i := range key {
		key[i] = byte(i * 3)
	}
	cp, err := anon.NewCryptoPAn(key)
	if err != nil {
		t.Fatal(err)
	}

	plain := classify.New(classify.Config{})
	anonymized := classify.New(classify.Config{})
	changed := 0
	for d := 0; d < 2; d++ {
		recs := scenario.Day(trafficgen.KindTier2, d)
		classifyRecs(plain, recs)
		for i := range recs {
			dst := recs[i].Dst
			recs[i].Src = cp.Anonymize(recs[i].Src)
			recs[i].Dst = cp.Anonymize(dst)
			if recs[i].Dst != dst {
				changed++
			}
		}
		classifyRecs(anonymized, recs)
	}
	if changed == 0 {
		t.Fatal("anonymization changed nothing")
	}
	if len(plain.Victims()) != len(anonymized.Victims()) {
		t.Errorf("victims plain=%d anonymized=%d", len(plain.Victims()), len(anonymized.Victims()))
	}
	pf, af := plain.FilterStats(), anonymized.FilterStats()
	if pf != af {
		t.Errorf("filter stats differ: %+v vs %+v", pf, af)
	}
}

// TestSelfAttackCaptureReplay runs a self-attack with pcap capture, then
// replays the capture through the packet decoder and flow builder and
// checks the classifier recognizes the attack traffic.
func TestSelfAttackCaptureReplay(t *testing.T) {
	study, err := core.NewSelfAttackStudy(core.Options{Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := booter.ServiceByName("A")
	if err != nil {
		t.Fatal(err)
	}
	target := study.Obs.NextTargetIP()
	atk, err := study.Engine.Launch(booter.Order{
		Service: svc, Vector: amplify.NTP, Target: target, Duration: 20 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	var capture bytes.Buffer
	if _, err := study.Obs.RunAttack(atk, core.SelfAttackStart, observatory.CaptureOptions{
		Writer: &capture, PacketsPerSecond: 10,
	}); err != nil {
		t.Fatal(err)
	}

	r, err := pcap.NewReader(&capture)
	if err != nil {
		t.Fatal(err)
	}
	tbl := flow.NewTable()
	count := 0
	for {
		hdr, data, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		d, err := packet.DecodeIPv4(data)
		if err != nil {
			t.Fatal(err)
		}
		tbl.Add(flow.FromPacket(d, hdr.Timestamp))
		count++
	}
	if count != 200 {
		t.Fatalf("replayed %d packets, want 200", count)
	}
	amplified := 0
	for _, rec := range tbl.Flush() {
		rec := rec
		if rec.Dst != target {
			t.Fatalf("captured flow toward %v, not the target", rec.Dst)
		}
		if rec.Protocol == packet.IPProtoUDP && rec.SrcPort == classify.NTPPort && rec.AvgPacketSize() > classify.OptimisticSizeThreshold {
			amplified++
		}
	}
	if amplified == 0 {
		t.Fatal("no replayed flow classified as amplified NTP")
	}
}
