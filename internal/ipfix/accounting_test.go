package ipfix

import (
	"net"
	"sync"
	"testing"
	"time"

	"booterscope/internal/flow"
)

// encodeN returns one message carrying n records.
func encodeN(t *testing.T, e *Encoder, n int) []byte {
	t.Helper()
	msg, err := e.Encode(sampleRecords(n), exportTime)
	if err != nil {
		t.Fatal(err)
	}
	return msg
}

func TestSeqGapAccounting(t *testing.T) {
	e := &Encoder{DomainID: 5, TemplateRefresh: 1}
	a := encodeN(t, e, 3)
	encodeN(t, e, 2) // lost in transit
	c := encodeN(t, e, 4)

	d := NewDecoder()
	for _, msg := range [][]byte{a, c} {
		if _, err := d.Decode(msg); err != nil {
			t.Fatal(err)
		}
	}
	st := d.domainStats()[5]
	if st.Messages != 2 || st.Records != 7 {
		t.Errorf("messages/records = %d/%d, want 2/7", st.Messages, st.Records)
	}
	if st.SeqGapRecords != 2 {
		t.Errorf("gap records = %d, want 2", st.SeqGapRecords)
	}
	if st.LostRecords() != 2 {
		t.Errorf("lost records = %d, want 2", st.LostRecords())
	}
	if st.SeqResets != 0 || st.DuplicateMessages != 0 {
		t.Errorf("spurious resets/dups: %+v", st)
	}
}

func TestSeqGapAcrossWraparound(t *testing.T) {
	// The sequence number is a record count mod 2^32; a gap spanning
	// the boundary must be computed in uint32 arithmetic, not charged
	// as a reset or a 4-billion-record gap.
	e := &Encoder{DomainID: 5, TemplateRefresh: 1}
	e.SetSeq(0xFFFFFFF6) // 10 records before the boundary
	a := encodeN(t, e, 10)
	if e.Seq() != 0 {
		t.Fatalf("seq after boundary message = %d, want wrapped 0", e.Seq())
	}
	encodeN(t, e, 5) // seq 0, lost in transit
	c := encodeN(t, e, 4)

	d := NewDecoder()
	for _, msg := range [][]byte{a, c} {
		if _, err := d.Decode(msg); err != nil {
			t.Fatal(err)
		}
	}
	st := d.domainStats()[5]
	if st.SeqGapRecords != 5 {
		t.Errorf("gap records across 2^32 = %d, want 5", st.SeqGapRecords)
	}
	if st.SeqResets != 0 {
		t.Errorf("wraparound misread as %d resets", st.SeqResets)
	}
}

func TestSeqLateAndDuplicateAccounting(t *testing.T) {
	e := &Encoder{DomainID: 5, TemplateRefresh: 1}
	a := encodeN(t, e, 3)
	b := encodeN(t, e, 2)
	c := encodeN(t, e, 4)

	d := NewDecoder()
	// Reordered delivery: A, C, then B late, then C duplicated.
	for _, msg := range [][]byte{a, c, b, c} {
		if _, err := d.Decode(msg); err != nil {
			t.Fatal(err)
		}
	}
	st := d.domainStats()[5]
	if st.SeqGapRecords != 2 {
		t.Errorf("gap records = %d, want 2 (B jumped over)", st.SeqGapRecords)
	}
	if st.SeqLateRecords != 2 {
		t.Errorf("late records = %d, want 2 (B recovered)", st.SeqLateRecords)
	}
	if st.LostRecords() != 0 {
		t.Errorf("lost records = %d, want 0 after recovery", st.LostRecords())
	}
	if st.DuplicateMessages != 1 {
		t.Errorf("duplicates = %d, want 1", st.DuplicateMessages)
	}
}

func TestSeqResetOnExporterRestart(t *testing.T) {
	e := &Encoder{DomainID: 5, TemplateRefresh: 1}
	e.SetSeq(2_000_000_000)
	a := encodeN(t, e, 3)
	// Restarted exporter: sequence falls back to zero.
	e.SetSeq(0)
	b := encodeN(t, e, 3)

	d := NewDecoder()
	for _, msg := range [][]byte{a, b} {
		if _, err := d.Decode(msg); err != nil {
			t.Fatal(err)
		}
	}
	st := d.domainStats()[5]
	if st.SeqResets != 1 {
		t.Errorf("resets = %d, want 1", st.SeqResets)
	}
	if st.SeqGapRecords != 0 {
		t.Errorf("restart charged as a %d-record gap", st.SeqGapRecords)
	}
}

func TestUnknownTemplateCounted(t *testing.T) {
	e := &Encoder{DomainID: 9, TemplateRefresh: 100}
	encodeN(t, e, 2) // carries the template; never delivered
	dataOnly := encodeN(t, e, 2)

	d := NewDecoder()
	if _, err := d.Decode(dataOnly); err != errNoTemplate {
		t.Fatalf("err = %v, want ErrNoTemplate", err)
	}
	st := d.domainStats()[9]
	if st.UnknownTemplateSets != 1 || st.UnknownTemplateMessages != 1 {
		t.Errorf("unknown-template sets/messages = %d/%d, want 1/1",
			st.UnknownTemplateSets, st.UnknownTemplateMessages)
	}
	if st.Messages != 1 {
		t.Errorf("messages = %d, want 1 (the undecodable one still counts)", st.Messages)
	}
}

// waitStats polls the collector until cond holds or 5 s pass.
func waitStats(t *testing.T, c *Collector, cond func(CollectorStats) bool) CollectorStats {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	var s CollectorStats
	for time.Now().Before(deadline) {
		s = c.Stats()
		if cond(s) {
			return s
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("condition never held; last stats %+v", s)
	return s
}

func TestCollectorStatsUnknownTemplate(t *testing.T) {
	col, err := NewCollector("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	done := make(chan struct{})
	go func() { defer close(done); _ = col.Run(func([]flow.Record) {}) }()

	e := &Encoder{DomainID: 3, TemplateRefresh: 100}
	encodeN(t, e, 1) // template message, deliberately not sent
	dataOnly := encodeN(t, e, 1)
	conn, err := net.Dial("udp", col.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(dataOnly); err != nil {
		t.Fatal(err)
	}

	s := waitStats(t, col, func(s CollectorStats) bool { return s.NoTemplate == 1 })
	if st := s.Domains[3]; st.UnknownTemplateSets != 1 {
		t.Errorf("domain unknown-template sets = %d, want 1", st.UnknownTemplateSets)
	}
	if h := col.Health(); h.OK {
		t.Error("health OK despite an undecodable message")
	}
	col.Close()
	<-done
}

func TestCollectorLoadShedsAccounted(t *testing.T) {
	col, err := NewCollector("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	col.QueueSize = 1

	release := make(chan struct{})
	var batches int
	var mu sync.Mutex
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = col.Run(func(recs []flow.Record) {
			mu.Lock()
			batches++
			mu.Unlock()
			<-release // stall the worker so the queue fills
		})
	}()

	exp, err := NewExporter(col.Addr().String(), 7)
	if err != nil {
		t.Fatal(err)
	}
	defer exp.Close()
	const sent = 10
	for i := 0; i < sent; i++ {
		if err := exp.Export(sampleRecords(1), exportTime); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond) // let the reader drain the socket
	}
	s := waitStats(t, col, func(s CollectorStats) bool { return s.Messages == sent })
	close(release)
	if s.Shed == 0 {
		t.Fatalf("no shedding with a stalled worker and queue size 1: %+v", s)
	}
	if h := col.Health(); h.OK {
		t.Error("health OK despite shed datagrams")
	}
	col.Close()
	<-done
}
