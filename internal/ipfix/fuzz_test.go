package ipfix

import (
	"encoding/binary"
	"slices"
	"testing"

	"booterscope/internal/flow"
)

func FuzzDecode(f *testing.F) {
	e := &Encoder{DomainID: 5}
	msg, _ := e.Encode(sampleRecords(3), exportTime)
	f.Add(msg)
	f.Add([]byte{0, 10, 0, 16})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewDecoder()
		recs, err := d.Decode(data)
		if err != nil {
			return
		}
		for _, r := range recs {
			if r.SamplingRate == 0 {
				t.Fatal("decoded record with zero sampling rate")
			}
		}
	})
}

// frames cuts a fuzz input into messages: each is prefixed with its
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

func framed(msgs ...[]byte) []byte {
	var out []byte
	for _, m := range msgs {
		out = binary.BigEndian.AppendUint16(out, uint16(len(m)))
		out = append(out, m...)
	}
	return out
}

// FuzzDecodeStream is the stateful target: the input is a sequence of
// messages fed to ONE decoder, so a template from one message is what a
// later message's data sets are read with — the path FuzzDecode's
// fresh-decoder-per-input cannot reach. A second decoder reads the same
// stream through appendDecode into a slab holding a prefix, the way the
// collector reuses its slab: it must return prefix ++ Decode(msg) (just
// the prefix on error) and leave the prefix untouched.
func FuzzDecodeStream(f *testing.F) {
	e := &Encoder{DomainID: 5}
	withTpl, _ := e.Encode(sampleRecords(3), exportTime)
	dataOnly, _ := e.Encode(sampleRecords(2), exportTime)
	f.Add(framed(withTpl, dataOnly))
	f.Add(framed(hostileMsg(templateSet(fieldSpec{ieSourceIPv4Address, 1})), hostileMsg(rawSet(256, 0x7f))))
	badTail := append(slices.Clone(dataOnly), 0x01, 0x90, 0xff, 0xff)
	binary.BigEndian.PutUint16(badTail[2:], uint16(len(badTail)))
	f.Add(framed(withTpl, badTail, dataOnly))
	prefix := sampleRecords(2)
	f.Fuzz(func(t *testing.T, data []byte) {
		d, appended := NewDecoder(), NewDecoder()
		for _, msg := range frames(data) {
			recs, err := d.Decode(msg)
			slab := append(make([]flow.Record, 0, len(prefix)+4), prefix...)
			got, aerr := appended.appendDecode(slab, msg)
			if (err == nil) != (aerr == nil) || err != nil && err.Error() != aerr.Error() {
				t.Fatalf("appendDecode error %v, Decode error %v", aerr, err)
			}
			if !slices.Equal(slab, prefix) {
				t.Fatal("appendDecode overwrote the slab's prefix")
			}
			if !slices.Equal(got, append(slices.Clone(prefix), recs...)) {
				t.Fatalf("appendDecode returned %d records, want the %d-record prefix and Decode's %d", len(got), len(prefix), len(recs))
			}
			if err != nil {
				if len(recs) != 0 {
					t.Fatalf("Decode returned %d records with %v", len(recs), err)
				}
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
