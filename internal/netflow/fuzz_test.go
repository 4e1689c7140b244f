package netflow

import (
	"encoding/binary"
	"testing"
	"time"
)

func FuzzDecodeV5(f *testing.F) {
	e := &V5Exporter{BootTime: boot}
	pkt, _ := e.EncodeV5(sampleRecords(3), now)
	f.Add(pkt)
	f.Add([]byte{})
	f.Add([]byte{0, 5, 0, 30})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodeV5(data)
		if err != nil {
			return
		}
		for _, r := range p.Records {
			if r.SamplingRate == 0 {
				t.Fatal("decoded record with zero sampling rate")
			}
			if !r.Src.Is4() || !r.Dst.Is4() {
				t.Fatal("non-IPv4 record address")
			}
		}
	})
}

func FuzzDecodeV9(f *testing.F) {
	e := &V9Exporter{SourceID: 7, BootTime: boot}
	withTpl, _ := e.EncodeV9(sampleRecords(2), now)
	f.Add(withTpl)
	f.Add([]byte{0, 9, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Each input gets a fresh collector: fuzzing must not depend on
		// template state carried across inputs.
		c := NewV9Collector()
		recs, err := c.DecodeV9(data)
		if err != nil {
			return
		}
		for _, r := range recs {
			if r.Start.After(r.End.Add(365 * 24 * time.Hour)) {
				// Wildly inconsistent timestamps are fine to decode but
				// must not wrap negative durations into panics later.
				_ = r.End.Sub(r.Start)
			}
		}
	})
}

// v9Packet builds a v9 packet for source 9 out of raw flowsets.
func v9Packet(sets ...[]byte) []byte {
	pkt := binary.BigEndian.AppendUint16(nil, 9)
	pkt = binary.BigEndian.AppendUint16(pkt, uint16(len(sets)))
	pkt = append(pkt, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 9)
	for _, s := range sets {
		pkt = append(pkt, s...)
	}
	return pkt
}

func v9Set(id uint16, content ...byte) []byte {
	s := binary.BigEndian.AppendUint16(nil, id)
	s = binary.BigEndian.AppendUint16(s, uint16(4+len(content)))
	return append(s, content...)
}

// v9TemplateSet declares template 256 with the given fields.
func v9TemplateSet(fields ...templateField) []byte {
	c := binary.BigEndian.AppendUint16(nil, 256)
	c = binary.BigEndian.AppendUint16(c, uint16(len(fields)))
	for _, f := range fields {
		c = binary.BigEndian.AppendUint16(c, f.Type)
		c = binary.BigEndian.AppendUint16(c, f.Length)
	}
	return v9Set(0, c...)
}

// frames cuts a fuzz input into packets: each is prefixed with its
// length as a big-endian uint16, and a prefix running past the input
// takes what is left.
func frames(data []byte) [][]byte {
	var out [][]byte
	for len(data) >= 2 {
		n := min(int(binary.BigEndian.Uint16(data)), len(data)-2)
		out = append(out, data[2:2+n])
		data = data[2+n:]
	}
	return out
}

func framed(pkts ...[]byte) []byte {
	var out []byte
	for _, p := range pkts {
		out = binary.BigEndian.AppendUint16(out, uint16(len(p)))
		out = append(out, p...)
	}
	return out
}

// FuzzDecodeV9Stream is the stateful target: the input is a sequence
// of packets fed to ONE collector, so a template (or options template)
// from one packet is what a later packet's data flowsets are read with
// — the path FuzzDecodeV9's fresh-collector-per-input cannot reach.
func FuzzDecodeV9Stream(f *testing.F) {
	e := &V9Exporter{SourceID: 7, BootTime: boot, SamplingRate: 64}
	withTpl, _ := e.EncodeV9(sampleRecords(2), now)
	dataOnly, _ := e.EncodeV9(sampleRecords(3), now)
	f.Add(framed(withTpl, dataOnly))
	f.Add(framed(v9Packet(v9TemplateSet(templateField{fieldIPv4Src, 1})), v9Packet(v9Set(256, 0x7f))))
	f.Fuzz(func(t *testing.T, data []byte) {
		c := NewV9Collector()
		for _, pkt := range frames(data) {
			recs, err := c.DecodeV9(pkt)
			if err != nil {
				continue
			}
			for _, r := range recs {
				if r.SamplingRate == 0 {
					t.Fatal("decoded record with zero sampling rate")
				}
			}
		}
	})
}
