// Package webobs implements the HTTPS side of the study's observatory:
// website snapshots of candidate booter domains, content-based booter
// classification (Zhang et al., the paper's ref [59] — keyword matching
// on page content rather than just domain names), and TLS certificate
// analysis (Kuhnert et al., ref [32]: booters cluster on free and
// self-signed certificates).
//
// Sites are generated from templates, served over real TLS with real
// generated X.509 certificates, and fetched with a real HTTP client —
// the snapshot pipeline is the one a production crawler would run.
package webobs

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/x509"
	"crypto/x509/pkix"
	"fmt"
	"io"
	"math/big"
	"net/http"
	"strings"
	"time"

	"booterscope/internal/netutil"
)

// CertProfile is the certificate deployment style of a site.
type CertProfile uint8

// Certificate profiles, mirroring the distributions the TLS study
// reports: booters overwhelmingly use free ACME certificates, CDN
// fronting, or self-signed certificates; commercial EV/OV certs are
// rare.
const (
	CertFreeACME CertProfile = iota
	CertCDNFronted
	CertSelfSigned
	CertCommercial
)

// String returns the profile name.
func (p CertProfile) String() string {
	switch p {
	case CertFreeACME:
		return "free-acme"
	case CertCDNFronted:
		return "cdn-fronted"
	case CertSelfSigned:
		return "self-signed"
	case CertCommercial:
		return "commercial"
	default:
		return fmt.Sprintf("CertProfile(%d)", uint8(p))
	}
}

// issuerName maps a profile to its issuing CA's common name.
func (p CertProfile) issuerName(domain string) string {
	switch p {
	case CertFreeACME:
		return "R3 Free Automated CA"
	case CertCDNFronted:
		return "CDN Shield Inc ECC CA-3"
	case CertCommercial:
		return "TrustCorp EV CA"
	default:
		return domain // self-signed: issuer == subject
	}
}

// GenerateCert builds a real self-contained X.509 certificate for the
// domain under the given profile. (All profiles are technically
// self-issued here — no chain building — but carry the issuer names and
// validity windows their real-world counterparts would.)
func GenerateCert(domain string, profile CertProfile, notBefore time.Time) (*x509.Certificate, *ecdsa.PrivateKey, error) {
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return nil, nil, fmt.Errorf("webobs: generating key: %w", err)
	}
	validity := 90 * 24 * time.Hour // ACME-style
	switch profile {
	case CertCommercial:
		validity = 365 * 24 * time.Hour
	case CertSelfSigned:
		validity = 10 * 365 * 24 * time.Hour
	}
	subject := pkix.Name{CommonName: domain}
	tpl := &x509.Certificate{
		//bsvet:allow determinism TLS certificate serials are nonces, never analysis input
		SerialNumber:          big.NewInt(time.Now().UnixNano()),
		Subject:               subject,
		Issuer:                pkix.Name{CommonName: profile.issuerName(domain)},
		NotBefore:             notBefore,
		NotAfter:              notBefore.Add(validity),
		DNSNames:              []string{domain, "www." + domain},
		KeyUsage:              x509.KeyUsageDigitalSignature,
		ExtKeyUsage:           []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth},
		BasicConstraintsValid: true,
	}
	// Issuer fields are taken from the parent template: forge a parent
	// carrying the CA name so the issued cert records it.
	parent := &x509.Certificate{
		SerialNumber:          big.NewInt(1),
		Subject:               pkix.Name{CommonName: profile.issuerName(domain)},
		NotBefore:             notBefore,
		NotAfter:              notBefore.Add(validity),
		IsCA:                  true,
		KeyUsage:              x509.KeyUsageCertSign,
		BasicConstraintsValid: true,
	}
	der, err := x509.CreateCertificate(rand.Reader, tpl, parent, &key.PublicKey, key)
	if err != nil {
		return nil, nil, fmt.Errorf("webobs: creating certificate: %w", err)
	}
	cert, err := x509.ParseCertificate(der)
	if err != nil {
		return nil, nil, fmt.Errorf("webobs: parsing certificate: %w", err)
	}
	return cert, key, nil
}

// booterTemplate is the panel HTML booter sites share (plans, attack
// methods, a login form), parameterized per site.
const booterTemplate = `<!DOCTYPE html>
<html><head><title>%s — Professional IP Stresser</title></head>
<body>
<h1>%s</h1>
<p>The most powerful stress testing service. Boot any IP off the
internet with our layer 4 and layer 7 attack methods.</p>
<ul>
<li>NTP, DNS, CLDAP and Memcached amplification up to %d Gbps</li>
<li>Spoofed UDP floods, bypasses common DDoS protection</li>
<li>Concurrent attacks on all plans</li>
</ul>
<h2>Plans</h2>
<table>
<tr><td>Bronze stresser plan</td><td>$%.2f/month</td></tr>
<tr><td>VIP booter plan</td><td>$%.2f/month</td></tr>
</table>
<form action="/login" method="post">
<input name="user"><input name="pass" type="password">
<button>Login to the panel</button>
</form>
</body></html>`

// benignTemplate is an ordinary site.
const benignTemplate = `<!DOCTYPE html>
<html><head><title>%s</title></head>
<body>
<h1>Welcome to %s</h1>
<p>We publish articles about gardening, recipes, and local events.
Subscribe to our newsletter for weekly updates.</p>
</body></html>`

// protectionTemplate is the hard case: a DDoS-protection vendor whose
// content shares vocabulary with booters.
const protectionTemplate = `<!DOCTYPE html>
<html><head><title>%s — DDoS Protection</title></head>
<body>
<h1>%s</h1>
<p>Enterprise DDoS mitigation. We absorb amplification attacks —
NTP, DNS, memcached — before they reach your network. Always-on
scrubbing, BGP diversion, and 24/7 SOC.</p>
</body></html>`

// SiteKind selects a content template.
type SiteKind uint8

// Site kinds.
const (
	SiteBooter SiteKind = iota
	SiteBenign
	SiteProtection
)

// RenderSite produces the HTML for a domain.
func RenderSite(kind SiteKind, domain string, seed uint64) string {
	r := netutil.NewRand(seed).Fork("site-" + domain)
	switch kind {
	case SiteBooter:
		name := strings.Split(domain, ".")[0]
		return fmt.Sprintf(booterTemplate, domain, name,
			10+r.IntN(90), 5+float64(r.IntN(30)), 50+float64(r.IntN(250)))
	case SiteProtection:
		return fmt.Sprintf(protectionTemplate, domain, strings.Split(domain, ".")[0])
	default:
		return fmt.Sprintf(benignTemplate, domain, domain)
	}
}

// Handler serves a rendered site (plus a /login endpoint for booter
// panels) — plug into httptest or a real server.
//
//bsvet:allow deadcode no production caller; kept for TestBooterLoginEndpoint and the crawl tests (deletion deferred, ROADMAP 8(iv))
func Handler(kind SiteKind, domain string, seed uint64) http.Handler {
	mux := http.NewServeMux()
	html := RenderSite(kind, domain, seed)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		io.WriteString(w, html)
	})
	if kind == SiteBooter {
		mux.HandleFunc("/login", func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "invalid credentials", http.StatusUnauthorized)
		})
	}
	return mux
}

// Snapshot is one crawled page.
type Snapshot struct {
	Domain    string
	URL       string
	HTML      string
	Cert      *x509.Certificate
	FetchedAt time.Time
}

// Crawl fetches url with the client and captures body + TLS leaf
// certificate. The domain labels the snapshot (the study keyed
// snapshots by zone domain, not by fetch URL).
//
//bsvet:allow deadcode no production caller; kept for TestCrawlOverRealTLS and TestCrawlError (deletion deferred, ROADMAP 8(iv))
func Crawl(client *http.Client, url, domain string, now time.Time) (*Snapshot, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, fmt.Errorf("webobs: fetching %s: %w", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return nil, fmt.Errorf("webobs: reading %s: %w", url, err)
	}
	snap := &Snapshot{Domain: domain, URL: url, HTML: string(body), FetchedAt: now}
	if resp.TLS != nil && len(resp.TLS.PeerCertificates) > 0 {
		snap.Cert = resp.TLS.PeerCertificates[0]
	}
	return snap, nil
}

// contentTerms weight booter-indicative vocabulary. Scores follow the
// content-characteristics approach: panel vocabulary scores high,
// protection-vendor vocabulary is down-weighted by the defensive terms.
var contentTerms = []struct {
	term   string
	weight float64
}{
	{"stresser", 2.0},
	{"booter", 2.0},
	{"boot any ip", 3.0},
	{"stress testing service", 2.5},
	{"attack methods", 2.0},
	{"spoofed", 1.5},
	{"amplification", 1.0},
	{"layer 4", 1.0},
	{"layer 7", 1.0},
	{"concurrent attacks", 2.0},
	{"plan", 0.5},
	{"gbps", 0.5},
	{"login to the panel", 2.0},
	// Defensive vocabulary pushes the score down.
	{"mitigation", -2.5},
	{"protection", -2.0},
	{"scrubbing", -2.5},
	{"soc", -1.0},
}

// contentScore rates HTML on the booter vocabulary scale.
func contentScore(html string) float64 {
	lower := strings.ToLower(html)
	var score float64
	for _, t := range contentTerms {
		if strings.Contains(lower, t.term) {
			score += t.weight
		}
	}
	return score
}

// contentThreshold is the classification cut: pages scoring above it
// are booter panels.
const contentThreshold = 5.0

// IsBooterContent applies the content classifier.
func IsBooterContent(html string) bool { return contentScore(html) > contentThreshold }

// CertStats aggregates certificate profiles across snapshots, the ref
// [32] analysis: issuer distribution and self-signed share.
type CertStats struct {
	Total      int
	ByIssuer   map[string]int
	SelfSigned int
	// ShortLived counts certificates valid ≤ 90 days (ACME-style).
	ShortLived int
}

// SelfSignedShare is the fraction of self-signed certificates.
func (s CertStats) SelfSignedShare() float64 {
	if s.Total == 0 {
		return 0
	}
	return float64(s.SelfSigned) / float64(s.Total)
}

// AnalyzeCerts aggregates the snapshots that carried certificates.
func AnalyzeCerts(snaps []*Snapshot) CertStats {
	stats := CertStats{ByIssuer: make(map[string]int)}
	for _, snap := range snaps {
		if snap.Cert == nil {
			continue
		}
		stats.Total++
		issuer := snap.Cert.Issuer.CommonName
		stats.ByIssuer[issuer]++
		if issuer == snap.Cert.Subject.CommonName {
			stats.SelfSigned++
		}
		if snap.Cert.NotAfter.Sub(snap.Cert.NotBefore) <= 90*24*time.Hour {
			stats.ShortLived++
		}
	}
	return stats
}
