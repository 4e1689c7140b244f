package ipfix

import (
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"booterscope/internal/flow"
	"booterscope/internal/netutil"
	"booterscope/internal/telemetry"
	"booterscope/internal/telemetry/eventlog"
)

// retryPolicy bounds how hard an Exporter tries to deliver a message
// before giving up.
type retryPolicy struct {
	// MaxAttempts is the total number of send attempts per message
	// (default 4).
	MaxAttempts int
	// Backoff spaces the retries; see netutil.Backoff for defaults.
	// Seed Backoff.Rand for reproducible jitter.
	Backoff netutil.Backoff
}

func (p retryPolicy) attempts() int {
	if p.MaxAttempts <= 0 {
		return 4
	}
	return p.MaxAttempts
}

// exporterMetrics are the exporter's delivery counters. They are plain
// telemetry atomics owned by the instance; exporterStats is a thin view
// over them, and RegisterTelemetry attaches the same objects to a
// registry so a scrape and Stats() can never disagree.
type exporterMetrics struct {
	messages *telemetry.Counter
	records  *telemetry.Counter
	retries  *telemetry.Counter
	redials  *telemetry.Counter
	failures *telemetry.Counter
	// backoff records every computed retry delay in seconds; attempts
	// counts retries by attempt number, so invisible-in-logs backoff
	// timing (netutil.Backoff) becomes a scrapeable distribution.
	backoff  *telemetry.Histogram
	attempts *telemetry.CounterVec
}

func newExporterMetrics() exporterMetrics {
	return exporterMetrics{
		messages: telemetry.NewCounter(),
		records:  telemetry.NewCounter(),
		retries:  telemetry.NewCounter(),
		redials:  telemetry.NewCounter(),
		failures: telemetry.NewCounter(),
		backoff:  telemetry.NewHistogram(),
		attempts: telemetry.NewCounterVec("attempt").SetMaxCardinality(16),
	}
}

// Exporter ships IPFIX messages to a collector over UDP, retrying
// transient send errors with exponential backoff and re-dialing the
// collector between attempts.
type Exporter struct {
	mu sync.Mutex
	//bsvet:guards mu
	conn net.Conn
	dial func() (net.Conn, error)
	//bsvet:guards mu
	enc   Encoder
	retry retryPolicy
	sleep func(time.Duration)
	m     exporterMetrics
}

// NewExporter dials the collector at addr ("host:port").
func NewExporter(addr string, domainID uint32) (*Exporter, error) {
	dial := func() (net.Conn, error) { return net.Dial("udp", addr) }
	conn, err := dial()
	if err != nil {
		return nil, fmt.Errorf("ipfix: dialing collector: %w", err)
	}
	e := newExporterConn(conn, domainID)
	e.dial = dial
	return e, nil
}

// newExporterConn wraps an existing connection (an alternative
// transport, or a fake conn under test). Without a dialer the exporter
// retries sends but cannot re-dial.
func newExporterConn(conn net.Conn, domainID uint32) *Exporter {
	return &Exporter{
		conn:  conn,
		enc:   Encoder{DomainID: domainID},
		sleep: time.Sleep, //bsvet:allow determinism exporter backoff waits on host time; tests inject a fake sleeper
		m:     newExporterMetrics(),
	}
}

// RegisterTelemetry attaches the exporter's delivery counters to r
// under the ipfix_exporter_* names. Call once per process; registering
// two exporters on one registry is a wiring bug and panics.
func (e *Exporter) RegisterTelemetry(r *telemetry.Registry) {
	r.MustRegister("ipfix_exporter_messages_total", "IPFIX messages delivered", e.m.messages)
	r.MustRegister("ipfix_exporter_records_total", "flow records delivered", e.m.records)
	r.MustRegister("ipfix_exporter_retries_total", "send attempts after transient errors", e.m.retries)
	r.MustRegister("ipfix_exporter_redials_total", "socket replacements while retrying", e.m.redials)
	r.MustRegister("ipfix_exporter_failures_total", "messages abandoned after all attempts", e.m.failures)
	r.MustRegister("ipfix_exporter_backoff_seconds", "computed retry backoff delays", e.m.backoff)
	r.MustRegister("ipfix_exporter_retry_attempts_total", "retries by attempt number", e.m.attempts)
}

// SetRetry replaces the exporter's retry policy.
//
//bsvet:allow deadcode test seam: TestExporterRedialsAndResendsTemplate shortens the retry policy with it
func (e *Exporter) SetRetry(p retryPolicy) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.retry = p
}

// SetTemplateRefresh sets the template refresh period in messages
// (1 = every message carries the template; see Encoder.TemplateRefresh).
// Lossy paths want short periods: until the next template message, a
// collector that missed the template cannot decode the domain's data.
func (e *Exporter) SetTemplateRefresh(n int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.enc.TemplateRefresh = n
}

// Stats returns a snapshot of the exporter's delivery accounting — a
// view over the same telemetry counters RegisterTelemetry exposes.
//
//bsvet:allow deadcode oracle: TestCollectorMatchesDecoder and the root chaos test read the exporter's delivery accounting
func (e *Exporter) Stats() exporterStats {
	return exporterStats{
		Messages: e.m.messages.Value(),
		Records:  e.m.records.Value(),
		Retries:  e.m.retries.Value(),
		Redials:  e.m.redials.Value(),
		Failures: e.m.failures.Value(),
	}
}

// Export encodes and sends one message, retrying per the retry policy.
// The sequence number advances even when every attempt fails, so the
// abandoned records surface at the collector as an accounted sequence
// gap rather than vanishing.
func (e *Exporter) Export(records []flow.Record, exportTime time.Time) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	msg, err := e.enc.Encode(records, exportTime)
	if err != nil {
		return err
	}
	attempts := e.retry.attempts()
	var lastErr error
	for a := 0; a < attempts; a++ {
		if a > 0 {
			// Each retry's computed backoff delay and attempt number go
			// through the telemetry registry: retry timing is a
			// distribution, not an invisible sleep.
			delay := e.retry.Backoff.Delay(a - 1)
			e.m.retries.Inc()
			e.m.backoff.ObserveDuration(delay)
			e.m.attempts.With(strconv.Itoa(a)).Inc()
			e.sleep(delay)
			e.redialLocked()
		}
		if _, err := e.conn.Write(msg); err != nil {
			lastErr = err
			continue
		}
		e.m.messages.Inc()
		e.m.records.Add(uint64(len(records)))
		return nil
	}
	e.m.failures.Inc()
	// The lost message may have carried the template; re-send it with
	// the next message so the collector is never stranded undecodable.
	e.enc.forceTemplate = true
	return fmt.Errorf("ipfix: sending message (%d attempts): %w", attempts, lastErr)
}

// redialLocked replaces the socket before a retry; callers hold e.mu.
// A fresh socket may reach a restarted collector with empty template
// state, so the template is re-sent with the next message.
func (e *Exporter) redialLocked() {
	if e.dial == nil {
		return
	}
	nc, err := e.dial()
	if err != nil {
		return
	}
	e.conn.Close()
	e.conn = nc
	e.m.redials.Inc()
	e.enc.forceTemplate = true
}

// Close releases the exporter's socket.
func (e *Exporter) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.conn.Close()
}

// defaultQueueSize is the default bound of the collector's ingest
// queue.
const defaultQueueSize = 1024

// Collector receives IPFIX messages over UDP and hands decoded records
// to a callback. A bounded ingest queue decouples the socket reader
// from decoding: under overload the collector sheds whole datagrams
// with explicit accounting instead of stalling the reader and letting
// the kernel drop invisibly.
type Collector struct {
	conn net.PacketConn
	dec  *Decoder

	// QueueSize bounds the ingest queue between the socket reader and
	// the decode worker (default defaultQueueSize). Set before Run.
	QueueSize int

	messages     *telemetry.Counter
	bytes        *telemetry.Counter
	shed         *telemetry.Counter
	decodeErrors *telemetry.Counter
	noTemplate   *telemetry.Counter
	decodePanics *telemetry.Counter
	records      *telemetry.Counter
	// queueHigh is the ingest queue's depth high-watermark: how close
	// the collector came to shedding since start.
	queueHigh *telemetry.Gauge

	// handler is the decoded-batch callback as an atomically swappable
	// slot: SetHandler replaces it while Run keeps reading the same
	// socket, so a config reload never drops the UDP listener (and the
	// datagrams the kernel would discard while it was down).
	handler atomic.Pointer[func([]flow.Record)]
	// queue is the live ingest queue, retained for depth probes.
	queue chan []byte

	mu sync.Mutex
	//bsvet:guards mu
	closed bool
}

// NewCollector listens on addr (e.g. "127.0.0.1:0").
func NewCollector(addr string) (*Collector, error) {
	conn, err := net.ListenPacket("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("ipfix: listening: %w", err)
	}
	return &Collector{
		conn:         conn,
		dec:          NewDecoder(),
		messages:     telemetry.NewCounter(),
		bytes:        telemetry.NewCounter(),
		shed:         telemetry.NewCounter(),
		decodeErrors: telemetry.NewCounter(),
		noTemplate:   telemetry.NewCounter(),
		decodePanics: telemetry.NewCounter(),
		records:      telemetry.NewCounter(),
		queueHigh:    telemetry.NewGauge(),
	}, nil
}

// RegisterTelemetry attaches the collector's accounting — socket,
// queue, decode, and the decoder's aggregate sequence counters — to r
// under the ipfix_collector_* and ipfix_decoder_* names.
func (c *Collector) RegisterTelemetry(r *telemetry.Registry) {
	r.MustRegister("ipfix_collector_messages_total", "datagrams read off the socket", c.messages)
	r.MustRegister("ipfix_collector_bytes_total", "bytes read off the socket", c.bytes)
	r.MustRegister("ipfix_collector_shed_total", "datagrams dropped at the full ingest queue", c.shed)
	r.MustRegister("ipfix_collector_decode_errors_total", "undecodable messages", c.decodeErrors)
	r.MustRegister("ipfix_collector_no_template_total", "messages dropped for want of a template", c.noTemplate)
	r.MustRegister("ipfix_collector_decode_panics_total", "datagrams that panicked the decoder (recovered and also counted as decode errors; the collector kept serving)", c.decodePanics)
	r.MustRegister("ipfix_collector_records_total", "flow records handed to the run callback", c.records)
	r.MustRegister("ipfix_collector_queue_depth_high_watermark", "peak ingest queue depth", c.queueHigh)
	c.dec.registerTelemetry(r)
}

// Addr reports the collector's bound address.
func (c *Collector) Addr() net.Addr { return c.conn.LocalAddr() }

// Stats returns a snapshot of the collector's accounting, including
// the decoder's per-observation-domain sequence and template state.
func (c *Collector) Stats() CollectorStats {
	return CollectorStats{
		Messages:     c.messages.Value(),
		Bytes:        c.bytes.Value(),
		Shed:         c.shed.Value(),
		DecodeErrors: c.decodeErrors.Value(),
		NoTemplate:   c.noTemplate.Value(),
		Records:      c.records.Value(),
		Domains:      c.dec.domainStats(),
	}
}

// Health condenses Stats into an operational verdict.
func (c *Collector) Health() Health {
	s := c.Stats()
	h := Health{
		LostRecords:  s.LostRecords(),
		Shed:         s.Shed,
		DecodeErrors: s.DecodeErrors + s.NoTemplate,
	}
	h.OK = h.LostRecords == 0 && h.Shed == 0 && h.DecodeErrors == 0
	return h
}

// setHandler replaces the decoded-batch callback without touching the
// socket: batches decoded after the swap go to the new handler. This
// is the reload path — a daemon re-wiring its pipeline on SIGHUP keeps
// its UDP listener (and loses no datagrams to a close/reopen window).
// The new handler borrows its records on the terms Run states.
func (c *Collector) setHandler(handle func([]flow.Record)) {
	c.handler.Store(&handle)
}

// QueueDepth probes the ingest queue: its current depth and capacity.
// (0, 0) before Run. Overload evaluation uses the ratio as its
// queue-pressure signal.
func (c *Collector) QueueDepth() (depth, capacity int) {
	c.mu.Lock()
	q := c.queue
	c.mu.Unlock()
	if q == nil {
		return 0, 0
	}
	return len(q), cap(q)
}

// Run reads messages until Close is called, invoking handle for each
// decoded batch (from a single worker goroutine, so handle needs no
// locking of its own; swap it live with SetHandler). Undecodable
// messages, unknown-template drops, shed datagrams, and sequence gaps
// are all accounted in Stats; the queue is drained before Run returns.
//
// The batch is lent, not given: the worker decodes every message into
// the same slab, so recs is valid only until handle returns. A handler
// that keeps records past that must copy them.
func (c *Collector) Run(handle func([]flow.Record)) error {
	c.setHandler(handle)
	qsize := c.QueueSize
	if qsize <= 0 {
		qsize = defaultQueueSize
	}
	queue := make(chan []byte, qsize)
	c.mu.Lock()
	c.queue = queue
	c.mu.Unlock()
	w := &decodeWorker{c: c, free: make(chan []byte, qsize)}
	workerDone := make(chan struct{})
	go func() {
		defer close(workerDone)
		for msg := range queue {
			w.handle(msg)
		}
	}()

	buf := make([]byte, 65535)
	var runErr error
	for {
		n, _, err := c.conn.ReadFrom(buf)
		if err != nil {
			c.mu.Lock()
			closed := c.closed
			c.mu.Unlock()
			if !closed {
				runErr = fmt.Errorf("ipfix: receiving: %w", err)
			}
			break
		}
		c.messages.Inc()
		c.bytes.Add(uint64(n))
		msg := w.buffer(n)
		copy(msg, buf[:n])
		select {
		case queue <- msg:
			c.queueHigh.SetMax(float64(len(queue)))
		default:
			c.shed.Inc() // load-shed: never block the socket reader
			w.recycle(msg)
		}
	}
	close(queue)
	<-workerDone
	return runErr
}

// decodeWorker is the state Run's decode goroutine keeps across
// messages: the slab every message decodes into and the handler
// borrows, and the free list of datagram buffers shared with the socket
// reader. The list is as deep as the ingest queue, so the buffer of
// every queued datagram has room to come back; the reader allocates
// when it is empty, so it never waits on the worker.
type decodeWorker struct {
	c    *Collector
	recs []flow.Record
	free chan []byte
}

// buffer returns an n-byte datagram buffer, recycled when the free list
// has one large enough.
func (w *decodeWorker) buffer(n int) []byte {
	select {
	case b := <-w.free:
		if cap(b) >= n {
			return b[:n]
		}
	default:
	}
	return make([]byte, n)
}

// recycle offers a datagram buffer back to the free list, dropping it
// when the list is full.
func (w *decodeWorker) recycle(b []byte) {
	select {
	case w.free <- b:
	default:
	}
}

// handle decodes one queued datagram into the worker's slab, returns the
// datagram's buffer (no record points into it), and lends the records
// to the handler.
//
//bsvet:hotpath
func (w *decodeWorker) handle(msg []byte) {
	c := w.c
	recs, err := c.decode(w.recs[:0], msg)
	w.recycle(msg)
	w.recs = recs
	if err != nil {
		if errors.Is(err, errNoTemplate) {
			c.noTemplate.Inc()
		} else {
			c.decodeErrors.Inc()
		}
		return
	}
	if len(recs) > 0 {
		c.records.Add(uint64(len(recs)))
		(*c.handler.Load())(recs)
	}
}

// decode is the decoder behind a last-resort recover: should a datagram
// get past template validation and panic the parser, it is counted,
// recorded and reported as a decode error, and the daemon serves the
// next one. Only the decoder is covered — a panic in the handler is a
// pipeline bug and stays fatal. Records are appended to dst.
func (c *Collector) decode(dst []flow.Record, msg []byte) (recs []flow.Record, err error) {
	defer func() {
		if p := recover(); p != nil {
			c.decodePanics.Inc()
			eventlog.Active().Emit("ipfix", "ipfix_decode_panic", 0,
				eventlog.A("panic", fmt.Sprint(p)),
				eventlog.AInt("datagram_bytes", int64(len(msg))))
			recs, err = dst, fmt.Errorf("ipfix: decoder panicked: %v", p)
		}
	}()
	return c.dec.appendDecode(dst, msg)
}

// Close stops the collector.
func (c *Collector) Close() error {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	return c.conn.Close()
}
