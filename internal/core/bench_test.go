package core

import (
	"fmt"
	"testing"
	"time"

	"booterscope/internal/flowstore"
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

// pipelineAnalyze is the replay path: one partition scan on par
// workers, producing Figure 4, Figure 5, and the robustness ablation
// together.
func pipelineAnalyze(r *ReplayStudy, k trafficgen.Kind, par int) error {
	r.Parallelism = par
	_, err := r.Analyze(k)
	return err
}

// BenchmarkPipelineAnalyze runs the replay path (one partition scan,
// per-worker stages) at one and four workers on the same archive;
// go run ./bench is where replay throughput is measured.
func BenchmarkPipelineAnalyze(b *testing.B) {
	replay, recs := benchArchive(b)
	k := trafficgen.KindTier2
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
