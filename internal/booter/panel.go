package booter

import (
	"errors"
	"fmt"
	"net/netip"
	"time"

	"booterscope/internal/amplify"
)

// Panel errors.
var (
	errConcurrentLimit = errors.New("booter: concurrent attack limit reached")
	errSeizedService   = errors.New("booter: service seized, panel unreachable")
)

// Concurrent attack slots by tier — booter panels advertise
// "concurrents" as a plan feature.
const (
	concurrentsNonVIP = 1
	concurrentsVIP    = 3
)

// HistoryEntry is one attack as the panel's backend logs it — the rows
// that later leak as the service's database.
type HistoryEntry struct {
	UserID   int
	Target   netip.Addr
	Vector   amplify.Vector
	Tier     Tier
	Duration time.Duration
	Time     time.Time
}

// panel is a booter's customer-facing attack panel: it enforces the
// plan's concurrent-attack limits, refuses orders while the service is
// seized, and keeps the backend attack log.
type panel struct {
	Service *Service
	engine  *Engine

	running []time.Time // end times of in-flight attacks per slot use
	history []HistoryEntry
}

// NewPanel opens a panel for one service on an engine.
//
//bsvet:allow deadcode the booter panel has no production caller; kept for TestPanelHistory and the other panel tests (deletion deferred, ROADMAP 8(iv))
func NewPanel(svc *Service, engine *Engine) *panel {
	return &panel{Service: svc, engine: engine}
}

// activeAt counts attacks still running at time t for a tier.
func (p *panel) activeAt(t time.Time) int {
	n := 0
	for _, end := range p.running {
		if end.After(t) {
			n++
		}
	}
	return n
}

// slots returns the tier's concurrent limit.
func slots(tier Tier) int {
	if tier == VIP {
		return concurrentsVIP
	}
	return concurrentsNonVIP
}

// Launch places an order at time t, enforcing the panel's rules, and
// returns the running attack.
//
//bsvet:allow deadcode the booter panel has no production caller; kept for TestPanelConcurrentLimitNonVIP and the other panel tests (deletion deferred, ROADMAP 8(iv))
func (p *panel) Launch(userID int, order Order, t time.Time) (*Attack, error) {
	if p.Service.activeDomain() == "" {
		return nil, errSeizedService
	}
	if order.Service == nil {
		order.Service = p.Service
	}
	if order.Service.Name != p.Service.Name {
		return nil, fmt.Errorf("booter: order for %s on %s's panel", order.Service.Name, p.Service.Name)
	}
	if p.activeAt(t) >= slots(order.Tier) {
		return nil, errConcurrentLimit
	}
	atk, err := p.engine.Launch(order)
	if err != nil {
		return nil, err
	}
	p.running = append(p.running, t.Add(order.Duration))
	p.compact(t)
	p.history = append(p.history, HistoryEntry{
		UserID:   userID,
		Target:   order.Target,
		Vector:   order.Vector,
		Tier:     order.Tier,
		Duration: order.Duration,
		Time:     t,
	})
	return atk, nil
}

// compact drops finished slots.
func (p *panel) compact(t time.Time) {
	kept := p.running[:0]
	for _, end := range p.running {
		if end.After(t) {
			kept = append(kept, end)
		}
	}
	p.running = kept
}

// History returns the backend attack log.
//
//bsvet:allow deadcode the booter panel has no production caller; kept for TestPanelHistory (deletion deferred, ROADMAP 8(iv))
func (p *panel) History() []HistoryEntry { return p.history }
