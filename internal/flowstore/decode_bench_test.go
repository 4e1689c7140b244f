package flowstore

import (
	"math/rand"
	"sort"
	"testing"
	"time"
	"unsafe"

	"booterscope/internal/flow"
)

// benchPayload encodes one sorted block of generated flows.
func benchPayload(b *testing.B) ([]byte, int) {
	b.Helper()
	rng := rand.New(rand.NewSource(97))
	recs := genFlows(rng, testBase, 2, 4096)
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].Start.Before(recs[j].Start) })
	return encodeBlock(recs), len(recs)
}

// BenchmarkDecodeBlockColumnar measures the block decode hot path: load,
// decode every column into the pooled vectors, no record
// materialization.
func BenchmarkDecodeBlockColumnar(b *testing.B) {
	payload, n := benchPayload(b)
	cb := getColumnBlock()
	defer cb.Release()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cb.load(payload, n); err != nil {
			b.Fatal(err)
		}
		if err := cb.decodeSet(AllColumns); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
}

// BenchmarkAppend measures the write path — route, stage, encode, frame,
// write, and a seal whenever a day rolls over — in 4096-record Append
// calls at the default geometry, fsync off. Each call continues ten
// minutes after the last; "shuffled" delivers every call's records out
// of order, so every block pays for the sort.
func BenchmarkAppend(b *testing.B) {
	for _, order := range []string{"sorted", "shuffled"} {
		b.Run(order, func(b *testing.B) {
			const span = 10 * time.Minute
			batch := appendBatch(4096, span, order == "shuffled")
			s, err := Open(b.TempDir(), Options{NoSync: true})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.SetBytes(int64(len(batch)) * int64(unsafe.Sizeof(flow.Record{})))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.Append(batch); err != nil {
					b.Fatal(err)
				}
				shiftBatch(batch, span)
			}
			if err := s.Close(); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(len(batch))*float64(b.N)/b.Elapsed().Seconds(), "records/s")
		})
	}
}
