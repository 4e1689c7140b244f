package pcap

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"
	"time"
)

func TestWriteReadRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, LinkTypeRaw, 0)
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Date(2018, 12, 19, 12, 0, 0, 123456000, time.UTC)
	pkts := [][]byte{
		{1, 2, 3, 4},
		bytes.Repeat([]byte{0xee}, 490),
		{},
	}
	for i, p := range pkts {
		if err := w.WritePacket(t0.Add(time.Duration(i)*time.Second), p); err != nil {
			t.Fatal(err)
		}
	}

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.LinkType() != LinkTypeRaw {
		t.Errorf("link type = %d", r.LinkType())
	}
	if r.SnapLen() != 65535 {
		t.Errorf("snap len = %d", r.SnapLen())
	}
	for i, want := range pkts {
		h, data, err := r.Next()
		if err != nil {
			t.Fatalf("packet %d: %v", i, err)
		}
		if !bytes.Equal(data, want) {
			t.Errorf("packet %d data mismatch", i)
		}
		if h.OriginalLength != len(want) || h.CaptureLength != len(want) {
			t.Errorf("packet %d lengths = %d/%d", i, h.CaptureLength, h.OriginalLength)
		}
		wantTS := t0.Add(time.Duration(i) * time.Second)
		if !h.Timestamp.Equal(wantTS) {
			t.Errorf("packet %d ts = %v, want %v", i, h.Timestamp, wantTS)
		}
	}
	if _, _, err := r.Next(); err != io.EOF {
		t.Errorf("after last packet err = %v, want io.EOF", err)
	}
}

func TestSnapLenTruncation(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, LinkTypeEthernet, 64)
	if err != nil {
		t.Fatal(err)
	}
	big := bytes.Repeat([]byte{7}, 1500)
	if err := w.WritePacket(time.Unix(0, 0), big); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	h, data, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 64 {
		t.Errorf("captured %d bytes, want 64", len(data))
	}
	if h.OriginalLength != 1500 {
		t.Errorf("original length = %d, want 1500", h.OriginalLength)
	}
}

func TestLittleEndianRead(t *testing.T) {
	// Hand-build a little-endian capture with one 3-byte packet.
	var buf bytes.Buffer
	le := binary.LittleEndian
	hdr := make([]byte, fileHeaderLen)
	le.PutUint32(hdr[0:], magicBE) // LE writers store the magic in LE order
	le.PutUint16(hdr[4:], versionMajor)
	le.PutUint16(hdr[6:], versionMinor)
	le.PutUint32(hdr[16:], 65535)
	le.PutUint32(hdr[20:], uint32(LinkTypeEthernet))
	buf.Write(hdr)
	rec := make([]byte, recHeaderLen)
	le.PutUint32(rec[0:], 1545220800)
	le.PutUint32(rec[4:], 42)
	le.PutUint32(rec[8:], 3)
	le.PutUint32(rec[12:], 3)
	buf.Write(rec)
	buf.Write([]byte{9, 8, 7})

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.LinkType() != LinkTypeEthernet {
		t.Errorf("link = %d", r.LinkType())
	}
	h, data, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, []byte{9, 8, 7}) {
		t.Errorf("data = %v", data)
	}
	if h.Timestamp.Unix() != 1545220800 {
		t.Errorf("ts = %v", h.Timestamp)
	}
}

func TestBadMagic(t *testing.T) {
	junk := bytes.Repeat([]byte{0x55}, fileHeaderLen)
	if _, err := NewReader(bytes.NewReader(junk)); err != errBadMagic {
		t.Errorf("err = %v, want ErrBadMagic", err)
	}
}

func TestTruncatedHeader(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte{1, 2, 3})); err == nil {
		t.Error("expected error on truncated file header")
	}
}

func TestTruncatedRecordData(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, LinkTypeRaw, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WritePacket(time.Unix(0, 0), []byte{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	short := buf.Bytes()[:buf.Len()-2] // drop the last 2 payload bytes
	r, err := NewReader(bytes.NewReader(short))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Next(); err == nil || err == io.EOF {
		t.Errorf("err = %v, want read error", err)
	}
}

func BenchmarkWritePacket(b *testing.B) {
	w, err := NewWriter(io.Discard, LinkTypeRaw, 0)
	if err != nil {
		b.Fatal(err)
	}
	pkt := bytes.Repeat([]byte{0xaa}, 490)
	ts := time.Unix(1545220800, 0)
	b.ReportAllocs()
	b.SetBytes(int64(len(pkt)))
	for i := 0; i < b.N; i++ {
		if err := w.WritePacket(ts, pkt); err != nil {
			b.Fatal(err)
		}
	}
}
