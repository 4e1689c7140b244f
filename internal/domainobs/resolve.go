package domainobs

import (
	"net/netip"
	"sort"
	"time"

	"booterscope/internal/netutil"
	"booterscope/internal/webobs"
)

// Well-known infrastructure addresses in the synthetic control plane.
var (
	// seizureBannerAddr is where the FBI points seized domains: a single
	// banner host — which makes the mass seizure detectable as a sudden
	// cluster of domains resolving to one address.
	seizureBannerAddr = netip.MustParseAddr("198.51.100.66")
	// parkingAddr hosts registered-but-inactive domains (booter A's
	// fallback sat here until the takedown).
	parkingAddr = netip.MustParseAddr("198.51.100.99")
)

// resolveA performs the weekly DNS resolution of one domain at time t:
// the A record it would have returned.
func (o *Observatory) resolveA(name string, t time.Time) (netip.Addr, bool) {
	for i := range o.domains {
		d := &o.domains[i]
		if d.Name != name {
			continue
		}
		if d.Registered.After(t) {
			return netip.Addr{}, false
		}
		if !d.Seized.IsZero() && !t.Before(d.Seized) {
			return seizureBannerAddr, true
		}
		if d.Activated.IsZero() || t.Before(d.Activated) {
			return parkingAddr, true
		}
		// Stable per-domain hosting address.
		h := netutil.NewRand(o.cfg.Seed).Fork("host-" + name)
		return netutil.Addr4(uint32(32+h.IntN(150))<<24 | h.Uint32N(1<<24)), true
	}
	return netip.Addr{}, false
}

// BannerCluster returns the domains resolving to the seizure banner at
// time t, sorted — the control-plane signature of the takedown.
func (o *Observatory) BannerCluster(t time.Time) []string {
	var out []string
	for i := range o.domains {
		if addr, ok := o.resolveA(o.domains[i].Name, t); ok && addr == seizureBannerAddr {
			out = append(out, o.domains[i].Name)
		}
	}
	sort.Strings(out)
	return out
}

// siteKindFor selects the website template ground truth for a domain.
func (o *Observatory) siteKindFor(d *Domain) webobs.SiteKind {
	if d.Booter {
		return webobs.SiteBooter
	}
	if matchesKeywords(d.Name) {
		// Benign keyword collisions in this universe are protection
		// vendors.
		return webobs.SiteProtection
	}
	return webobs.SiteBenign
}

// snapshotHTML renders the page a crawler would fetch from the domain
// at time t ("" when the site serves nothing: unregistered, parked, or
// seized).
func (o *Observatory) snapshotHTML(name string, t time.Time) string {
	for i := range o.domains {
		d := &o.domains[i]
		if d.Name != name {
			continue
		}
		if !d.activeAt(t) {
			return ""
		}
		return webobs.RenderSite(o.siteKindFor(d), name, o.cfg.Seed)
	}
	return ""
}

// VerifyByContent replaces the study's manual verification step with
// the content classifier: candidate domains (keyword hits) are crawled
// at time t and kept when their page content classifies as a booter
// panel. Parked and seized candidates produce no content and drop out.
func (o *Observatory) VerifyByContent(candidates []string, t time.Time) []string {
	var out []string
	for _, name := range candidates {
		html := o.snapshotHTML(name, t)
		if html == "" {
			continue
		}
		if webobs.IsBooterContent(html) {
			out = append(out, name)
		}
	}
	return out
}
