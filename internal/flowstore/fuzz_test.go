package flowstore

import (
	"bytes"
	"math/rand"
	"testing"

	"booterscope/internal/flow"
)

// FuzzDecodeBlock is the differential fuzz target for the block reader:
// for any payload — valid, truncated, or corrupted — both the scan's
// columnBlock decoder and the test-only reference decoder must return
// an error or succeed, never panic, and never allocate past the
// declared record count. The two must also agree: a payload one
// accepts, the other accepts with bit-identical records; a payload one
// rejects (the retired v1 seeds among them), the other rejects.
//
// Run with: go test -fuzz=FuzzDecodeBlock ./internal/flowstore/
func FuzzDecodeBlock(f *testing.F) {
	// Seed corpus: valid payloads over representative record
	// populations, their v1 forms, plus hostile shapes.
	rng := rand.New(rand.NewSource(97))
	for trial := 0; trial < 8; trial++ {
		n := 1 + rng.Intn(200)
		recs := make([]flow.Record, n)
		for i := range recs {
			recs[i] = randRecord(rng)
		}
		f.Add(encodeBlock(recs), uint16(n))
		f.Add(encodeBlockV1(recs), uint16(n))
		// Declared count disagreeing with the payload.
		f.Add(encodeBlock(recs), uint16(n+1))
	}
	f.Add([]byte{}, uint16(1))
	f.Add([]byte{0x00}, uint16(1))                   // bare v2 marker
	f.Add([]byte{0x00, 0x02}, uint16(1))             // marker + version, no columns
	f.Add([]byte{0x00, 0x03, 17}, uint16(1))         // unknown version
	f.Add([]byte{0x00, 0x02, 16}, uint16(1))         // wrong column count
	f.Add([]byte{0x00, 0x02, 17, 0x02}, uint16(1))   // unknown encoding tag
	f.Add([]byte{0x01, 0x00}, uint16(1))             // v1 with truncated columns
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}, uint16(4)) // unterminated uvarint

	f.Fuzz(func(t *testing.T, payload []byte, count16 uint16) {
		count := int(count16)
		if count == 0 {
			count = 1
		}

		refRecs, refErr := refDecodeBlock(payload, count)

		cb := getColumnBlock()
		defer cb.Release()
		colErr := cb.load(payload, count)
		var colRecs []flow.Record
		if colErr == nil {
			p := compilePredicate(&Query{})
			if colErr = cb.applyQuery(&p); colErr == nil {
				if colErr = cb.decodeSet(AllColumns); colErr == nil {
					colRecs = cb.materializeSelected(nil)
				}
			}
		}

		if (refErr == nil) != (colErr == nil) {
			t.Fatalf("decoders disagree: reference err = %v, columnar err = %v", refErr, colErr)
		}
		if refErr != nil {
			return
		}
		if len(refRecs) != count || len(colRecs) != count {
			t.Fatalf("decoded %d reference / %d columnar records, declared %d", len(refRecs), len(colRecs), count)
		}
		for i := range refRecs {
			if !recordEqual(&refRecs[i], &colRecs[i]) {
				t.Fatalf("record %d diverges\nreference: %+v\ncolumnar:  %+v",
					i, refRecs[i], colRecs[i])
			}
		}

		// Accepted payloads must re-encode and round-trip bit-for-bit —
		// the writer canonicalizes whatever the reader admits — and the
		// production encoder must write what the reference encoder does.
		re := encodeBlock(refRecs)
		if !bytes.Equal(re, refEncodeBlock(refRecs)) {
			t.Fatalf("production and reference encoders diverge on %d records", count)
		}
		back, err := refDecodeBlock(re, count)
		if err != nil {
			t.Fatalf("re-encode failed to decode: %v", err)
		}
		for i := range refRecs {
			if !recordEqual(&refRecs[i], &back[i]) {
				t.Fatalf("record %d fails re-encode round-trip", i)
			}
		}
	})
}
