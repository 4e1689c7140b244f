package core

import (
	"fmt"
	"testing"
	"time"

	"booterscope/internal/flow"
	"booterscope/internal/flowstore"
	"booterscope/internal/packet"
	"booterscope/internal/takedown"
	"booterscope/internal/trafficgen"
)

// benchArchive writes a 30-day tier-2 archive once per process and
// returns a replay study over it plus the archived record count.
func benchArchive(tb testing.TB) (*ReplayStudy, uint64) {
	tb.Helper()
	cfg := trafficgen.Config{
		Start:    TakedownDate.Add(-15 * 24 * time.Hour),
		Days:     30,
		Takedown: TakedownDate,
		Seed:     17,
		Scale:    1,
	}
	study := &TakedownStudy{Scenario: trafficgen.NewScenario(cfg), Event: takedown.FBITakedown}
	dir := tb.TempDir()
	if err := study.WriteArchive(dir, flowstore.Options{NoSync: true}, trafficgen.KindTier2); err != nil {
		tb.Fatalf("write archive: %v", err)
	}
	replay, err := OpenReplay(dir)
	if err != nil {
		tb.Fatalf("open replay: %v", err)
	}
	tb.Cleanup(func() { replay.Close() })
	var recs uint64
	for _, e := range replay.Store(trafficgen.KindTier2).Segments() {
		recs += e.Records
	}
	return replay, recs
}

// legacyAnalyze is the pre-pipeline shape of the Section 5.2 replay,
// producing the same outputs as Analyze (Figure 4, Figure 5, and the
// robustness ablation): one time-ordered Scan per analysis (k-way
// shard funnel plus per-partition sorts), each feeding a serial
// per-record aggregation — the baseline the batch pipeline is
// measured against.
func legacyAnalyze(r *ReplayStudy, k trafficgen.Kind) error {
	st := r.Store(k)
	ordered := func(q flowstore.Query) takedown.Source {
		return takedown.FromRecords(func(fn func(*flow.Record) error) error {
			_, err := st.Scan(q, fn)
			return err
		})
	}
	fig4Query := flowstore.Query{
		Protocols: []uint8{packet.IPProtoUDP},
		DstPorts:  triggerPorts(),
	}
	if _, err := takedown.Figure4Source(ordered(fig4Query), r.window, k, 1); err != nil {
		return err
	}
	fig5Src := ordered(flowstore.Query{Protocols: []uint8{packet.IPProtoUDP}})
	if _, err := takedown.Figure5Source(fig5Src, r.window, k, 1); err != nil {
		return err
	}
	_, err := takedown.Figure4RobustnessSource(ordered(fig4Query), r.window, 1)
	return err
}

// pipelineAnalyze is the batch-pipeline path: one unordered
// ScanBatches pass fanned out across par shards, producing Figure 4,
// Figure 5, and the robustness ablation together.
func pipelineAnalyze(r *ReplayStudy, k trafficgen.Kind, par int) error {
	r.Parallelism = par
	_, err := r.Analyze(k)
	return err
}

// BenchmarkPipelineAnalyze compares the legacy serial replay (ordered
// scans, per-record callbacks, one pass per figure) against the batch
// pipeline (single unordered scan, sharded stages) on the same
// archive. make bench-smoke runs it for one iteration so the legacy
// comparison cannot silently stop compiling; go run ./bench is where
// replay throughput is measured.
func BenchmarkPipelineAnalyze(b *testing.B) {
	replay, recs := benchArchive(b)
	k := trafficgen.KindTier2
	b.Run("legacy-serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := legacyAnalyze(replay, k); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(recs)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
	})
	for _, par := range []int{1, 4} {
		b.Run(fmt.Sprintf("pipeline-par%d", par), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := pipelineAnalyze(replay, k, par); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(recs)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
		})
	}
}
