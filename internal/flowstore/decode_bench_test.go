package flowstore

import (
	"math/rand"
	"sort"
	"testing"
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
