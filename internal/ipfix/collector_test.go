package ipfix

import (
	"encoding/binary"
	"errors"
	"net"
	"reflect"
	"slices"
	"sync"
	"testing"

	"booterscope/internal/flow"
)

// message is hostileMsg for any observation domain and sequence number.
func message(domain, seq uint32, sets ...[]byte) []byte {
	msg := hostileMsg(sets...)
	binary.BigEndian.PutUint32(msg[8:], seq)
	binary.BigEndian.PutUint32(msg[12:], domain)
	return msg
}

// setOf returns the set with the given id out of an encoded message.
func setOf(t *testing.T, msg []byte, id uint16) []byte {
	t.Helper()
	for off := headerLen; off+setHeaderLen <= len(msg); {
		n := int(binary.BigEndian.Uint16(msg[off+2:]))
		if binary.BigEndian.Uint16(msg[off:]) == id {
			return msg[off : off+n]
		}
		off += n
	}
	t.Fatalf("message has no set %d", id)
	return nil
}

// TestCollectorMatchesDecoder sends a stream mixing every message shape
// through Collector.Run over loopback: the records the handler is lent,
// deep-copied, must equal what per-message Decode on a fresh decoder
// returns, and the two must account the stream identically. The stream
// includes a message whose second set is malformed after a good data
// set: its rows must come back from neither side, so a decoder that
// leaves them in the slab it was handed fails here.
func TestCollectorMatchesDecoder(t *testing.T) {
	e := &Encoder{DomainID: 5, TemplateRefresh: 1 << 20}
	withTpl := encodeN(t, e, 3) // seq 0; only its template set is sent
	d1 := encodeN(t, e, 4)      // seq 3: a gap of three after the template
	d2 := encodeN(t, e, 2)      // seq 7
	d3 := encodeN(t, e, 5)      // seq 9
	d4 := encodeN(t, e, 6)      // seq 14
	d5 := encodeN(t, e, 3)      // seq 20: a gap, since d4's message is refused
	data := func(msg []byte) []byte { return setOf(t, msg, flowTemplateID) }
	stream := [][]byte{
		message(5, 0, setOf(t, withTpl, templateSetID)), // template only
		d1,
		message(6, 0, data(d2)), // domain 6 has no template
		d2,
		d2, // duplicate
		message(5, 9, data(d3), rawSet(999, 1, 2, 3, 4)),         // one unknown-template set beside good data
		message(5, 14, data(d4), []byte{0x01, 0x90, 0xff, 0xff}), // a set running past the message: errBadSet
		d5,
	}

	ref := NewDecoder()
	var want [][]flow.Record
	var wantRecords, wantErrs, wantNoTpl uint64
	for i, msg := range stream {
		recs, err := ref.Decode(msg)
		switch {
		case errors.Is(err, errNoTemplate):
			wantNoTpl++
		case err != nil:
			wantErrs++
		case len(recs) > 0:
			want = append(want, recs)
			wantRecords += uint64(len(recs))
		}
		if err != nil && len(recs) != 0 {
			t.Fatalf("message %d: Decode returned %d records with %v", i, len(recs), err)
		}
	}
	if wantErrs != 1 || wantNoTpl != 1 {
		t.Fatalf("stream decodes with %d errors and %d template-less messages, want 1 and 1", wantErrs, wantNoTpl)
	}

	col, err := NewCollector("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	var mu sync.Mutex
	var got [][]flow.Record
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = col.Run(func(recs []flow.Record) {
			mu.Lock()
			got = append(got, slices.Clone(recs))
			mu.Unlock()
		})
	}()
	conn, err := net.Dial("udp", col.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for _, msg := range stream {
		if _, err := conn.Write(msg); err != nil {
			t.Fatal(err)
		}
	}
	// Once the reader has queued every datagram, Close lets Run drain the
	// queue through the worker before it returns.
	waitStats(t, col, func(s CollectorStats) bool { return s.Messages == uint64(len(stream)) })
	col.Close()
	<-done
	s := col.Stats()

	if s.Records != wantRecords || s.DecodeErrors != wantErrs || s.NoTemplate != wantNoTpl || s.Shed != 0 {
		t.Fatalf("collector accounted %d records, %d decode errors, %d template-less, %d shed; want %d, %d, %d, 0",
			s.Records, s.DecodeErrors, s.NoTemplate, s.Shed, wantRecords, wantErrs, wantNoTpl)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("collector lent %d batches that differ from per-message Decode's %d", len(got), len(want))
	}
	if gotDom, wantDom := s.Domains, ref.domainStats(); !reflect.DeepEqual(gotDom, wantDom) {
		t.Fatalf("collector domain stats %+v, want %+v", gotDom, wantDom)
	}
}

// TestDecodeAllocations pins Decode to one allocation for a
// single-data-set message: its fresh result. The collector's
// per-datagram step, which decodes into a reused slab, is a row of
// TestHotPathAllocs.
func TestDecodeAllocations(t *testing.T) {
	const (
		warm = 80 // past the duplicate ring's growth
		runs = 200
	)
	e := &Encoder{DomainID: 5, TemplateRefresh: 1 << 20}
	msgs := make([][]byte, warm+runs+1)
	for i := range msgs {
		msgs[i] = encodeN(t, e, 32)
	}
	d := NewDecoder()
	step := func(m []byte) {
		if _, err := d.Decode(m); err != nil {
			t.Fatal(err)
		}
	}
	for _, m := range msgs[:warm] {
		step(m)
	}
	next := msgs[warm:]
	if got := testing.AllocsPerRun(runs, func() {
		step(next[0])
		next = next[1:]
	}); got != 1 {
		t.Errorf("Decode allocates %v times per single-data-set message, want 1", got)
	}
}
