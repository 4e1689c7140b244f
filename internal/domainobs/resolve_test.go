package domainobs

import (
	"testing"
)

func TestResolveALifecycle(t *testing.T) {
	o := testObservatory()
	var seized, active Domain
	for _, d := range o.Domains() {
		if !d.Seized.IsZero() && seized.Name == "" {
			seized = d
		}
		if d.Booter && d.Seized.IsZero() && d.activeAt(takedown) && active.Name == "" {
			active = d
		}
	}
	// Before registration: NXDOMAIN.
	if _, ok := o.resolveA(seized.Name, seized.Registered.AddDate(0, 0, -1)); ok {
		t.Error("resolved before registration")
	}
	// Active before the takedown: a hosting address, stable across
	// queries.
	a1, ok1 := o.resolveA(seized.Name, takedown.AddDate(0, 0, -5))
	a2, ok2 := o.resolveA(seized.Name, takedown.AddDate(0, 0, -3))
	if !ok1 || !ok2 || a1 != a2 {
		t.Errorf("hosting address unstable: %v/%v", a1, a2)
	}
	if a1 == seizureBannerAddr || a1 == parkingAddr {
		t.Errorf("active domain resolves to infrastructure address %v", a1)
	}
	// After the seizure: the banner.
	after, ok := o.resolveA(seized.Name, takedown.AddDate(0, 0, 1))
	if !ok || after != seizureBannerAddr {
		t.Errorf("post-seizure A = %v ok=%t", after, ok)
	}
	// Unseized booters keep their hosting address.
	if addr, ok := o.resolveA(active.Name, takedown.AddDate(0, 0, 1)); !ok || addr == seizureBannerAddr {
		t.Errorf("unseized domain = %v", addr)
	}
	if _, ok := o.resolveA("never-registered.example", takedown); ok {
		t.Error("unknown domain resolved")
	}
}

func TestSuccessorParkedThenLive(t *testing.T) {
	o := testObservatory()
	var successor Domain
	for _, d := range o.Domains() {
		if d.SuccessorOf != "" {
			successor = d
		}
	}
	// Parked between registration (June) and activation (takedown+3).
	addr, ok := o.resolveA(successor.Name, takedown.AddDate(0, -2, 0))
	if !ok || addr != parkingAddr {
		t.Errorf("parked fallback = %v ok=%t", addr, ok)
	}
	addr, ok = o.resolveA(successor.Name, takedown.AddDate(0, 0, 4))
	if !ok || addr == parkingAddr || addr == seizureBannerAddr {
		t.Errorf("live fallback = %v ok=%t", addr, ok)
	}
}

func TestBannerClusterDetectsMassSeizure(t *testing.T) {
	o := testObservatory()
	if got := o.BannerCluster(takedown.AddDate(0, 0, -1)); len(got) != 0 {
		t.Errorf("banner cluster before takedown = %d domains", len(got))
	}
	after := o.BannerCluster(takedown.AddDate(0, 0, 1))
	if len(after) != 15 {
		t.Errorf("banner cluster after takedown = %d, want the 15 seized domains", len(after))
	}
	for _, name := range after {
		if !matchesKeywords(name) {
			t.Errorf("non-booter %q in the banner cluster", name)
		}
	}
}

func TestSnapshotHTML(t *testing.T) {
	o := testObservatory()
	var seized, activeBooter Domain
	for _, d := range o.Domains() {
		if !d.Seized.IsZero() && seized.Name == "" {
			seized = d
		}
		if d.Booter && d.Seized.IsZero() && d.activeAt(takedown) && activeBooter.Name == "" {
			activeBooter = d
		}
	}
	if html := o.snapshotHTML(activeBooter.Name, takedown); html == "" {
		t.Error("active booter serves no content")
	}
	if html := o.snapshotHTML(seized.Name, takedown.AddDate(0, 0, 1)); html != "" {
		t.Error("seized domain still serves content")
	}
	if html := o.snapshotHTML("never-registered.example", takedown); html != "" {
		t.Error("unknown domain serves content")
	}
}

func TestVerifyByContentMatchesGroundTruth(t *testing.T) {
	o := testObservatory()
	when := takedown.AddDate(0, 0, -30)
	snapshot := o.ZoneSnapshot(when)
	candidates := o.KeywordHits(snapshot)
	verified := o.VerifyByContent(candidates, when)

	// Ground truth: booters registered, activated, and not seized at
	// `when`.
	truth := make(map[string]bool)
	for _, d := range o.Domains() {
		if d.Booter && d.activeAt(when) && !d.Registered.After(when) {
			truth[d.Name] = true
		}
	}
	got := make(map[string]bool, len(verified))
	for _, name := range verified {
		if !truth[name] {
			t.Errorf("false positive: %q", name)
		}
		got[name] = true
	}
	for name := range truth {
		if !got[name] {
			t.Errorf("false negative: %q", name)
		}
	}
	// The protection-vendor keyword collisions must have been dropped
	// by content, not by name.
	dropped := 0
	for _, c := range candidates {
		if !got[c] {
			dropped++
		}
	}
	if dropped == 0 {
		t.Error("content verification dropped nothing; collisions missing")
	}
}

func TestVerifyByContentAfterSeizure(t *testing.T) {
	// Right after the takedown the seized panels serve banners (no
	// content), so content verification finds fewer booters — and finds
	// the successor once it activates.
	o := testObservatory()
	candidates := o.KeywordHits(o.ZoneSnapshot(takedown.AddDate(0, 0, 4)))
	verified := o.VerifyByContent(candidates, takedown.AddDate(0, 0, 4))
	seizedStillVerified := 0
	successorFound := false
	for _, name := range verified {
		for _, d := range o.Domains() {
			if d.Name != name {
				continue
			}
			if !d.Seized.IsZero() {
				seizedStillVerified++
			}
			if d.SuccessorOf != "" {
				successorFound = true
			}
		}
	}
	if seizedStillVerified != 0 {
		t.Errorf("%d seized domains still verify as booters", seizedStillVerified)
	}
	if !successorFound {
		t.Error("successor domain not found by content verification")
	}
}

func BenchmarkBannerCluster(b *testing.B) {
	o := testObservatory()
	when := takedown.AddDate(0, 0, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = o.BannerCluster(when)
	}
}
