package ipfix

import (
	"errors"
	"net"
	"testing"
	"time"

	"booterscope/internal/netutil"
)

// flakyConn is a net.Conn whose first failN writes fail.
type flakyConn struct {
	failN  int
	writes int
	sent   [][]byte
}

var errFlaky = errors.New("transient send error")

func (c *flakyConn) Write(b []byte) (int, error) {
	c.writes++
	if c.writes <= c.failN {
		return 0, errFlaky
	}
	msg := make([]byte, len(b))
	copy(msg, b)
	c.sent = append(c.sent, msg)
	return len(b), nil
}

func (c *flakyConn) Read(b []byte) (int, error)       { return 0, errors.New("not readable") }
func (c *flakyConn) Close() error                     { return nil }
func (c *flakyConn) LocalAddr() net.Addr              { return nil }
func (c *flakyConn) RemoteAddr() net.Addr             { return nil }
func (c *flakyConn) SetDeadline(time.Time) error      { return nil }
func (c *flakyConn) SetReadDeadline(time.Time) error  { return nil }
func (c *flakyConn) SetWriteDeadline(time.Time) error { return nil }

// retryExporter wires a flaky conn into an exporter with captured
// sleeps and a seeded backoff.
func retryExporter(failN, maxAttempts int, seed uint64) (*Exporter, *flakyConn, *[]time.Duration) {
	fc := &flakyConn{failN: failN}
	e := newExporterConn(fc, 1)
	e.SetRetry(retryPolicy{
		MaxAttempts: maxAttempts,
		Backoff: netutil.Backoff{
			Base: 10 * time.Millisecond,
			Max:  100 * time.Millisecond,
			Rand: netutil.NewRand(seed),
		},
	})
	var slept []time.Duration
	e.sleep = func(d time.Duration) { slept = append(slept, d) }
	return e, fc, &slept
}

func TestExporterRetriesThenSucceeds(t *testing.T) {
	e, fc, slept := retryExporter(2, 4, 5)
	if err := e.Export(sampleRecords(3), exportTime); err != nil {
		t.Fatalf("export failed despite retry budget: %v", err)
	}
	if fc.writes != 3 {
		t.Errorf("writes = %d, want 3 (2 failures + 1 success)", fc.writes)
	}
	st := e.Stats()
	if st.Retries != 2 || st.Failures != 0 {
		t.Errorf("retries/failures = %d/%d, want 2/0", st.Retries, st.Failures)
	}
	if st.Messages != 1 || st.Records != 3 {
		t.Errorf("messages/records = %d/%d, want 1/3", st.Messages, st.Records)
	}
	// The delays are the seeded backoff sequence: same seed, same
	// jittered delays, each within its attempt's [c/2, c) window.
	want := netutil.Backoff{
		Base: 10 * time.Millisecond,
		Max:  100 * time.Millisecond,
		Rand: netutil.NewRand(5),
	}
	if len(*slept) != 2 {
		t.Fatalf("slept %d times, want 2", len(*slept))
	}
	for i, d := range *slept {
		if w := want.Delay(i); d != w {
			t.Errorf("retry %d slept %v, want seeded %v", i, d, w)
		}
	}
}

func TestExporterExhaustsAttempts(t *testing.T) {
	e, fc, slept := retryExporter(0, 3, 5)
	// Message 0 (with template) delivers cleanly.
	if err := e.Export(sampleRecords(1), exportTime); err != nil {
		t.Fatal(err)
	}
	// Message 1 dies on every attempt.
	fc.failN = fc.writes + 3
	err := e.Export(sampleRecords(4), exportTime)
	if err == nil {
		t.Fatal("no error after exhausting attempts")
	}
	if !errors.Is(err, errFlaky) {
		t.Errorf("error %v does not wrap the transport error", err)
	}
	if fc.writes != 4 {
		t.Errorf("writes = %d, want 4 (1 success + MaxAttempts=3)", fc.writes)
	}
	if len(*slept) != 2 {
		t.Errorf("slept %d times, want 2 (between 3 attempts)", len(*slept))
	}
	st := e.Stats()
	if st.Failures != 1 || st.Messages != 1 {
		t.Errorf("failures/messages = %d/%d, want 1/1", st.Failures, st.Messages)
	}
	// The abandoned message still consumed sequence numbers, so its 4
	// records surface at the collector as an accounted gap instead of
	// vanishing.
	if err := e.Export(sampleRecords(2), exportTime); err != nil {
		t.Fatal(err)
	}
	d := NewDecoder()
	for _, msg := range fc.sent {
		if _, err := d.Decode(msg); err != nil {
			t.Fatal(err)
		}
	}
	if st := d.domainStats()[1]; st.SeqGapRecords != 4 || st.LostRecords() != 4 {
		t.Errorf("gap/lost = %d/%d, want 4/4 for the abandoned message", st.SeqGapRecords, st.LostRecords())
	}
}

func TestExporterRedialsAndResendsTemplate(t *testing.T) {
	bad := &flakyConn{failN: 1000}
	good := &flakyConn{}
	e := newExporterConn(bad, 1)
	e.dial = func() (net.Conn, error) { return good, nil }
	e.SetRetry(retryPolicy{MaxAttempts: 2, Backoff: netutil.Backoff{Base: time.Microsecond, Max: time.Microsecond}})
	e.sleep = func(time.Duration) {}

	// Message 0 (with template) dies on the bad conn, then the redial
	// delivers it through the good one.
	if err := e.Export(sampleRecords(1), exportTime); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Redials != 1 {
		t.Fatalf("redials = %d, want 1", st.Redials)
	}
	// The redial forces a template on the following message even
	// though the default refresh cycle (20) would omit it.
	if err := e.Export(sampleRecords(1), exportTime); err != nil {
		t.Fatal(err)
	}
	if len(good.sent) != 2 {
		t.Fatalf("good conn carried %d messages, want 2", len(good.sent))
	}
	d := NewDecoder()
	// Decoding only the second message must succeed: it carries the
	// re-sent template.
	if _, err := d.Decode(good.sent[1]); err != nil {
		t.Fatalf("second message not self-describing after redial: %v", err)
	}
}
