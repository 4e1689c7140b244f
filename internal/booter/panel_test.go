package booter

import (
	"net/netip"
	"testing"
	"time"

	"booterscope/internal/amplify"
)

var panelT0 = time.Date(2018, 7, 1, 12, 0, 0, 0, time.UTC)

func testPanel(t *testing.T, name string) *panel {
	t.Helper()
	svc, err := ServiceByName(name)
	if err != nil {
		t.Fatal(err)
	}
	svc.SeizedByFBI = false // pre-takedown state
	return NewPanel(svc, NewEngine(testPools(), 5))
}

func order(tier Tier, target string, d time.Duration) Order {
	return Order{
		Vector:   amplify.NTP,
		Tier:     tier,
		Target:   netip.MustParseAddr(target),
		Duration: d,
	}
}

func TestPanelConcurrentLimitNonVIP(t *testing.T) {
	p := testPanel(t, "C")
	if _, err := p.Launch(1, order(NonVIP, "198.51.100.1", time.Minute), panelT0); err != nil {
		t.Fatal(err)
	}
	// Second concurrent non-VIP attack: refused.
	if _, err := p.Launch(1, order(NonVIP, "198.51.100.2", time.Minute), panelT0.Add(10*time.Second)); err != errConcurrentLimit {
		t.Errorf("err = %v, want ErrConcurrentLimit", err)
	}
	// After the first finishes, a new one launches.
	if _, err := p.Launch(1, order(NonVIP, "198.51.100.3", time.Minute), panelT0.Add(2*time.Minute)); err != nil {
		t.Errorf("post-expiry launch: %v", err)
	}
}

func TestPanelVIPHasMoreSlots(t *testing.T) {
	p := testPanel(t, "B")
	for i := 0; i < concurrentsVIP; i++ {
		if _, err := p.Launch(2, order(VIP, "198.51.100.10", time.Minute), panelT0); err != nil {
			t.Fatalf("VIP slot %d: %v", i, err)
		}
	}
	if _, err := p.Launch(2, order(VIP, "198.51.100.11", time.Minute), panelT0); err != errConcurrentLimit {
		t.Errorf("err = %v, want ErrConcurrentLimit at slot %d", err, concurrentsVIP)
	}
}

func TestPanelRefusesWhenSeized(t *testing.T) {
	p := testPanel(t, "B")
	p.Service.Seize() // B has no backup domain: panel gone
	if _, err := p.Launch(1, order(NonVIP, "198.51.100.1", time.Minute), panelT0); err != errSeizedService {
		t.Errorf("err = %v, want ErrSeizedService", err)
	}
}

func TestPanelSurvivesSeizureWithBackup(t *testing.T) {
	p := testPanel(t, "A")
	p.Service.Seize() // A re-emerges on its backup domain
	if _, err := p.Launch(1, order(NonVIP, "198.51.100.1", time.Minute), panelT0); err != nil {
		t.Errorf("backup-domain panel refused: %v", err)
	}
}

func TestPanelRejectsForeignOrders(t *testing.T) {
	p := testPanel(t, "C")
	other, _ := ServiceByName("D")
	o := order(NonVIP, "198.51.100.1", time.Minute)
	o.Service = other
	if _, err := p.Launch(1, o, panelT0); err == nil {
		t.Error("foreign service order accepted")
	}
}

func TestPanelHistory(t *testing.T) {
	p := testPanel(t, "C")
	targets := []string{"198.51.100.1", "198.51.100.2", "198.51.100.3"}
	for i, tgt := range targets {
		at := panelT0.Add(time.Duration(i) * 2 * time.Minute)
		if _, err := p.Launch(7, order(NonVIP, tgt, time.Minute), at); err != nil {
			t.Fatal(err)
		}
	}
	hist := p.History()
	if len(hist) != 3 {
		t.Fatalf("history = %d entries", len(hist))
	}
	for i, h := range hist {
		if h.UserID != 7 || h.Vector != amplify.NTP || h.Tier != NonVIP {
			t.Errorf("entry %d = %+v", i, h)
		}
		if h.Target.String() != targets[i] {
			t.Errorf("entry %d target = %v", i, h.Target)
		}
	}
	// Refused launches leave no history.
	p2 := testPanel(t, "C")
	p2.Launch(1, order(NonVIP, "198.51.100.1", time.Minute), panelT0)
	p2.Launch(1, order(NonVIP, "198.51.100.2", time.Minute), panelT0)
	if len(p2.History()) != 1 {
		t.Errorf("history after refusal = %d", len(p2.History()))
	}
}
