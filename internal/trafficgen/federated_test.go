package trafficgen

import (
	"reflect"
	"sort"
	"testing"
	"time"
)

func fedViews() []FederatedView {
	return sortViews([]FederatedView{
		{Name: "tier2", Tier: "tier-2 isp", Visibility: 0.35, SamplingRate: 1},
		{Name: "ixp", Tier: "ixp", Visibility: 0.98, SamplingRate: 100},
		{Name: "tier1", Tier: "tier-1 isp", Visibility: 0.55, SamplingRate: 1},
	})
}

func fedScenario() *Scenario {
	return NewScenario(Config{
		Start: time.Date(2018, 4, 1, 0, 0, 0, 0, time.UTC),
		Days:  2,
		Seed:  42,
		Scale: 0.1,
	})
}

// TestFederatedDayDeterministic: same scenario, same day, same views —
// byte-identical ground truth and observations on every call.
func TestFederatedDayDeterministic(t *testing.T) {
	views := fedViews()
	u1, p1 := fedScenario().FederatedDay(0, views)
	u2, p2 := fedScenario().FederatedDay(0, views)
	if !reflect.DeepEqual(u1, u2) {
		t.Fatal("ground truth differs between identical calls")
	}
	if !reflect.DeepEqual(p1, p2) {
		t.Fatal("per-view observations differ between identical calls")
	}
}

// TestFederatedDayUniqueStarts: the byte-identity proof needs a total
// merge order, which requires ground-truth start times to be unique.
func TestFederatedDayUniqueStarts(t *testing.T) {
	union, _ := fedScenario().FederatedDay(0, fedViews())
	seen := make(map[int64]bool, len(union))
	for i := range union {
		ns := union[i].Start.UnixNano()
		if seen[ns] {
			t.Fatalf("duplicate ground-truth start time %d", ns)
		}
		seen[ns] = true
	}
}

// TestFederatedViewSemantics: per-destination visibility is all or
// nothing, sampled records carry the sampling rate, and every observed
// record is a ground-truth record (same key and start).
func TestFederatedViewSemantics(t *testing.T) {
	views := fedViews()
	union, perView := fedScenario().FederatedDay(0, views)
	type keyTime struct {
		src, dst string
		ns       int64
	}
	truth := make(map[keyTime]bool, len(union))
	for i := range union {
		truth[keyTime{union[i].Src.String(), union[i].Dst.String(), union[i].Start.UnixNano()}] = true
	}
	for vi, v := range views {
		recs := perView[vi]
		if len(recs) == 0 {
			t.Fatalf("view %s observed nothing", v.Name)
		}
		for i := range recs {
			r := &recs[i]
			if !v.visible(r.Dst) {
				t.Fatalf("view %s emitted a record toward invisible destination %v", v.Name, r.Dst)
			}
			if !truth[keyTime{r.Src.String(), r.Dst.String(), r.Start.UnixNano()}] {
				t.Fatalf("view %s emitted a record not in the ground truth", v.Name)
			}
			if v.SamplingRate > 1 && r.SamplingRate != v.SamplingRate {
				t.Fatalf("view %s: sampled record carries rate %d, want %d", v.Name, r.SamplingRate, v.SamplingRate)
			}
		}
		// Visibility is per destination: a destination either appears
		// with every ground-truth record toward it (modulo sampling) or
		// not at all. Spot-check via the unsampled views.
		if v.SamplingRate <= 1 {
			wantCount := 0
			for i := range union {
				if v.visible(union[i].Dst) {
					wantCount++
				}
			}
			if len(recs) != wantCount {
				t.Fatalf("view %s observed %d records, want %d (visibility is per destination)",
					v.Name, len(recs), wantCount)
			}
		}
	}
}

// TestFederatedSamplingUnbiased: scaled counters of a sampled view
// approximate the visible ground truth (unbiased rounding).
func TestFederatedSamplingUnbiased(t *testing.T) {
	views := fedViews()
	union, perView := fedScenario().FederatedDay(0, views)
	for vi, v := range views {
		if v.SamplingRate <= 1 {
			continue
		}
		var truthBytes, scaledBytes float64
		for i := range union {
			if v.visible(union[i].Dst) {
				truthBytes += float64(union[i].Bytes)
			}
		}
		for i := range perView[vi] {
			scaledBytes += float64(perView[vi][i].ScaledBytes())
		}
		if truthBytes == 0 {
			t.Fatal("no visible ground-truth bytes")
		}
		ratio := scaledBytes / truthBytes
		if ratio < 0.9 || ratio > 1.1 {
			t.Fatalf("view %s: scaled bytes / truth bytes = %.3f, want ~1 (unbiased sampling)", v.Name, ratio)
		}
	}
}

// sortViews orders views by name — the canonical federation order:
// vantage manifests sort by name, and the byte-identity proof between
// a federated scan and a union-archive scan relies on writing the
// union in this same order.
func sortViews(views []FederatedView) []FederatedView {
	out := append([]FederatedView(nil), views...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
