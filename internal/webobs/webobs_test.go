package webobs

import (
	"crypto/tls"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

var certEpoch = time.Date(2018, 11, 1, 0, 0, 0, 0, time.UTC)

func TestGenerateCertProfiles(t *testing.T) {
	cases := []struct {
		profile    CertProfile
		wantIssuer string
		selfSigned bool
		shortLived bool
	}{
		{CertFreeACME, "R3 Free Automated CA", false, true},
		{CertCDNFronted, "CDN Shield Inc ECC CA-3", false, true},
		{CertSelfSigned, "quantum-booter-1.com", true, false},
		{CertCommercial, "TrustCorp EV CA", false, false},
	}
	for _, c := range cases {
		cert, key, err := GenerateCert("quantum-booter-1.com", c.profile, certEpoch)
		if err != nil {
			t.Fatalf("%v: %v", c.profile, err)
		}
		if key == nil {
			t.Fatalf("%v: nil key", c.profile)
		}
		if cert.Issuer.CommonName != c.wantIssuer {
			t.Errorf("%v issuer = %q, want %q", c.profile, cert.Issuer.CommonName, c.wantIssuer)
		}
		if got := cert.Issuer.CommonName == cert.Subject.CommonName; got != c.selfSigned {
			t.Errorf("%v self-signed = %t", c.profile, got)
		}
		if got := cert.NotAfter.Sub(cert.NotBefore) <= 90*24*time.Hour; got != c.shortLived {
			t.Errorf("%v short-lived = %t (validity %v)", c.profile, got, cert.NotAfter.Sub(cert.NotBefore))
		}
		if len(cert.DNSNames) != 2 || cert.DNSNames[0] != "quantum-booter-1.com" {
			t.Errorf("%v SANs = %v", c.profile, cert.DNSNames)
		}
	}
}

func TestRenderSiteKinds(t *testing.T) {
	booterHTML := RenderSite(SiteBooter, "quantum-booter-1.com", 1)
	if !strings.Contains(booterHTML, "Stresser") || !strings.Contains(booterHTML, "Plans") {
		t.Error("booter template missing panel vocabulary")
	}
	benignHTML := RenderSite(SiteBenign, "site-0001.com", 1)
	if strings.Contains(strings.ToLower(benignHTML), "stresser") {
		t.Error("benign template contains booter vocabulary")
	}
	protHTML := RenderSite(SiteProtection, "anti-ddos-protect-0.com", 1)
	if !strings.Contains(protHTML, "mitigation") {
		t.Error("protection template missing defensive vocabulary")
	}
	// Deterministic per seed.
	if RenderSite(SiteBooter, "x.com", 5) != RenderSite(SiteBooter, "x.com", 5) {
		t.Error("rendering not deterministic")
	}
}

func TestContentClassifier(t *testing.T) {
	booterHTML := RenderSite(SiteBooter, "quantum-booter-1.com", 1)
	if !IsBooterContent(booterHTML) {
		t.Errorf("booter panel scored %.1f, below threshold", contentScore(booterHTML))
	}
	benignHTML := RenderSite(SiteBenign, "site-0001.com", 1)
	if IsBooterContent(benignHTML) {
		t.Errorf("benign page scored %.1f, above threshold", contentScore(benignHTML))
	}
	// The hard case: a DDoS-protection vendor shares vocabulary but the
	// defensive terms pull it below the cut.
	protHTML := RenderSite(SiteProtection, "anti-ddos-protect-0.com", 1)
	if IsBooterContent(protHTML) {
		t.Errorf("protection vendor scored %.1f, above threshold", contentScore(protHTML))
	}
}

func TestCrawlOverRealTLS(t *testing.T) {
	srv := httptest.NewTLSServer(Handler(SiteBooter, "quantum-booter-1.com", 1))
	defer srv.Close()

	snap, err := Crawl(srv.Client(), srv.URL, "quantum-booter-1.com", certEpoch)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Domain != "quantum-booter-1.com" {
		t.Errorf("domain = %q", snap.Domain)
	}
	if !IsBooterContent(snap.HTML) {
		t.Error("crawled booter page not classified")
	}
	if snap.Cert == nil {
		t.Fatal("no TLS certificate captured")
	}
}

func TestCrawlWithGeneratedCert(t *testing.T) {
	// Serve with our own generated self-signed cert and verify the
	// crawler captures exactly it.
	cert, key, err := GenerateCert("quantum-booter-1.com", CertSelfSigned, certEpoch)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewUnstartedServer(Handler(SiteBooter, "quantum-booter-1.com", 1))
	srv.TLS = &tls.Config{Certificates: []tls.Certificate{{
		Certificate: [][]byte{cert.Raw},
		PrivateKey:  key,
		Leaf:        cert,
	}}}
	srv.StartTLS()
	defer srv.Close()

	client := &http.Client{Transport: &http.Transport{
		TLSClientConfig: &tls.Config{InsecureSkipVerify: true}, // snapshotting, not validating
	}}
	snap, err := Crawl(client, srv.URL, "quantum-booter-1.com", certEpoch)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Cert == nil || snap.Cert.Subject.CommonName != "quantum-booter-1.com" {
		t.Fatalf("captured cert = %+v", snap.Cert)
	}
	if snap.Cert.Issuer.CommonName != snap.Cert.Subject.CommonName {
		t.Error("expected the self-signed certificate")
	}
}

func TestCrawlHTTPNoTLS(t *testing.T) {
	srv := httptest.NewServer(Handler(SiteBenign, "site-0001.com", 1))
	defer srv.Close()
	snap, err := Crawl(srv.Client(), srv.URL, "site-0001.com", certEpoch)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Cert != nil {
		t.Error("plain HTTP snapshot carries a certificate")
	}
}

func TestCrawlError(t *testing.T) {
	if _, err := Crawl(http.DefaultClient, "http://127.0.0.1:1", "x", certEpoch); err == nil {
		t.Error("expected connection error")
	}
}

func TestBooterLoginEndpoint(t *testing.T) {
	srv := httptest.NewServer(Handler(SiteBooter, "quantum-booter-1.com", 1))
	defer srv.Close()
	resp, err := srv.Client().Post(srv.URL+"/login", "application/x-www-form-urlencoded", strings.NewReader("user=x&pass=y"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Errorf("login status = %d", resp.StatusCode)
	}
}

func TestAnalyzeCerts(t *testing.T) {
	mkSnap := func(profile CertProfile, domain string) *Snapshot {
		cert, _, err := GenerateCert(domain, profile, certEpoch)
		if err != nil {
			t.Fatal(err)
		}
		return &Snapshot{Domain: domain, Cert: cert}
	}
	snaps := []*Snapshot{
		mkSnap(CertFreeACME, "a.com"),
		mkSnap(CertFreeACME, "b.com"),
		mkSnap(CertSelfSigned, "c.com"),
		mkSnap(CertCDNFronted, "d.com"),
		mkSnap(CertCommercial, "e.com"),
		{Domain: "no-tls.com"}, // no certificate: skipped
	}
	stats := AnalyzeCerts(snaps)
	if stats.Total != 5 {
		t.Errorf("total = %d", stats.Total)
	}
	if stats.ByIssuer["R3 Free Automated CA"] != 2 {
		t.Errorf("issuers = %v", stats.ByIssuer)
	}
	if stats.SelfSigned != 1 {
		t.Errorf("self-signed = %d", stats.SelfSigned)
	}
	if got := stats.SelfSignedShare(); got != 0.2 {
		t.Errorf("self-signed share = %v", got)
	}
	// FreeACME + CDN are ≤ 90 days.
	if stats.ShortLived != 3 {
		t.Errorf("short-lived = %d", stats.ShortLived)
	}
	if (CertStats{}).SelfSignedShare() != 0 {
		t.Error("empty share should be 0")
	}
}

func TestCertProfileStrings(t *testing.T) {
	for p, want := range map[CertProfile]string{
		CertFreeACME: "free-acme", CertCDNFronted: "cdn-fronted",
		CertSelfSigned: "self-signed", CertCommercial: "commercial",
	} {
		if p.String() != want {
			t.Errorf("%d = %q", p, p.String())
		}
	}
}

func BenchmarkContentScore(b *testing.B) {
	html := RenderSite(SiteBooter, "quantum-booter-1.com", 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = contentScore(html)
	}
}
