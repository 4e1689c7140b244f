package core

import (
	"path/filepath"
	"testing"

	"booterscope/internal/federation"
	"booterscope/internal/flow"
	"booterscope/internal/flowstore"
)

// fedBenchArchive writes a 3-vantage federated archive with its union
// store and opens both sides.
func fedBenchArchive(tb testing.TB) (*federation.Coordinator, *flowstore.Store, uint64) {
	tb.Helper()
	dir, c := writeFed(tb, 4, 0.5)
	union, err := flowstore.Open(filepath.Join(dir, "union"), flowstore.Options{NoSync: true})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { union.Close() })
	var recs uint64
	for _, e := range union.Segments() {
		recs += e.Records
	}
	return c, union, recs
}

func scanUnion(union *flowstore.Store) error {
	_, err := union.Scan(flowstore.Query{}, func(*flow.Record) error { return nil })
	return err
}

func scanFederated(c *federation.Coordinator) error {
	_, err := c.Scan(flowstore.Query{}, func(string, *flow.Record) error { return nil })
	return err
}

// BenchmarkFederatedScan compares the federated merged scan across 3
// vantage archives against a plain scan of the single union archive
// holding the same records — the price of the cross-store k-way merge.
// make bench-smoke runs it for one iteration.
func BenchmarkFederatedScan(b *testing.B) {
	c, union, recs := fedBenchArchive(b)
	b.Run("union-1store", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := scanUnion(union); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(recs)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
	})
	b.Run("federated-3stores", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := scanFederated(c); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(recs)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
	})
}
