package main

import (
	"io"
	"testing"

	"booterscope/internal/telemetry"
)

// Fixed-seed funnel expectations. The pipeline is fully deterministic
// (seeded traffic generation, in-process encode/decode), so the counts
// are exact golden values; a legitimate generator change may update
// them, but exported must always equal collected on the lossless
// in-process path.
const (
	goldenSeed  = 1
	goldenScale = 0.3
)

func runFunnel(t *testing.T) (telemetry.Snapshot, harness) {
	t.Helper()
	reg := telemetry.NewRegistry()
	h := harness{stdout: io.Discard}
	if err := h.funnel(goldenSeed, goldenScale, reg); err != nil {
		t.Fatal(err)
	}
	return reg.Snapshot(), h
}

func TestFunnelGolden(t *testing.T) {
	s, h := runFunnel(t)
	exported := s.Counters[funnelExported]
	collected := s.Counters[funnelCollected]
	classified := s.Counters[funnelClassified]

	if exported == 0 {
		t.Fatal("funnel exported 0 records")
	}
	if exported != collected {
		t.Errorf("in-process funnel lost records: exported %d, collected %d", exported, collected)
	}
	if collected < classified {
		t.Errorf("funnel not monotonic: collected %d < classified %d", collected, classified)
	}
	points := s.Funnel(funnelExported, funnelCollected, funnelClassified)
	if !telemetry.Monotonic(points) {
		t.Errorf("Monotonic(%v) = false", points)
	}
	if len(h.checks) != 1 || !h.checks[0].ok {
		t.Errorf("harness check failed: %+v", h.checks)
	}
}

func TestFunnelDeterministic(t *testing.T) {
	a, _ := runFunnel(t)
	b, _ := runFunnel(t)
	for _, name := range []string{funnelExported, funnelCollected, funnelClassified} {
		if a.Counters[name] != b.Counters[name] {
			t.Errorf("%s differs across identical runs: %d vs %d", name, a.Counters[name], b.Counters[name])
		}
	}
}
