package main

import (
	"bytes"
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"
	"time"

	"booterscope/internal/federation"
	"booterscope/internal/flow"
	"booterscope/internal/flowstore"
	"booterscope/internal/packet"
)

// attack is 12 reflectors × minutes records of 1 GB each toward dst:
// 1.6 Gbps a minute, over ddoswatch's default thresholds.
func attack(dst string, minutes int, at time.Time) []flow.Record {
	var out []flow.Record
	for m := 0; m < minutes; m++ {
		for s := 0; s < 12; s++ {
			start := at.Add(time.Duration(m)*time.Minute + time.Duration(s)*time.Second)
			out = append(out, flow.Record{
				Key: flow.Key{
					Src: netip.AddrFrom4([4]byte{198, 51, 100, byte(s)}), Dst: netip.MustParseAddr(dst),
					SrcPort: 123, DstPort: uint16(40000 + s), Protocol: packet.IPProtoUDP,
				},
				Packets: 2_000_000, Bytes: 1_000_000_000,
				Start: start, End: start.Add(time.Second), SamplingRate: 1,
			})
		}
	}
	return out
}

// TestRunFederationSmoke drives the -federate -correlate mode in
// process over a tiny two-vantage archive, captures what it prints, and
// holds the printed counts against the library's own answers for the
// same archive. One call only: runFederation registers its metrics on
// the process-wide registry, as the binary does once.
func TestRunFederationSmoke(t *testing.T) {
	dir := t.TempDir()
	at := time.Date(2018, 12, 19, 12, 0, 0, 0, time.UTC)
	shared := attack("203.0.113.10", 3, at)
	ixpOnly := attack("203.0.113.20", 2, at.Add(20*time.Minute))
	m := &federation.Manifest{}
	for _, v := range []struct {
		name, tier string
		recs       []flow.Record
	}{
		{"ixp", "ixp", append(append([]flow.Record(nil), shared...), ixpOnly...)},
		{"tier1", "tier-1 isp", shared},
	} {
		st, err := flowstore.Open(filepath.Join(dir, v.name), flowstore.Options{Shards: 2, NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Append(v.recs); err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		m.Vantages = append(m.Vantages, federation.Vantage{Name: v.name, Tier: v.tier, Dir: v.name, ClockSkewMaxSeconds: 30})
	}
	manifest := filepath.Join(dir, "vantages.json")
	if err := m.Save(manifest); err != nil {
		t.Fatal(err)
	}

	// The library's answers.
	loaded, err := federation.LoadManifest(manifest)
	if err != nil {
		t.Fatal(err)
	}
	c, err := federation.Open(loaded, federation.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var merged int
	if _, err := c.Scan(flowstore.Query{}, func(string, *flow.Record) error { merged++; return nil }); err != nil {
		t.Fatal(err)
	}
	report, err := c.Correlate(federation.CorrelateOptions{})
	c.Close()
	if err != nil {
		t.Fatal(err)
	}
	if merged != 2*len(shared)+len(ixpOnly) || len(report.Attacks) != 2 || report.Disagreements != 1 {
		t.Fatalf("fixture: %d records merged, %d attacks, %d disagreements", merged, len(report.Attacks), report.Disagreements)
	}

	var printed bytes.Buffer
	runErr := runFederation(&printed, manifest, true, "")
	out := printed.String()
	if runErr != nil {
		t.Fatalf("runFederation: %v\n%s", runErr, out)
	}

	for _, want := range []struct {
		what, pattern string
		value         int
	}{
		{"vantages", `== Federation: (\d+) vantages`, 2},
		{"merged records", `federated scan: (\d+) records merged`, merged},
		{"ixp records", `ixp +ixp +(\d+) records`, len(shared) + len(ixpOnly)},
		{"tier1 records", `tier1 +tier-1 isp +(\d+) records`, len(shared)},
		{"joined attacks", `correlation: (\d+) attacks joined`, len(report.Attacks)},
		{"disagreements", `attacks joined, (\d+) disagreements`, report.Disagreements},
		{"tier1 crossed", `tier1 +tier-1 isp +\d+ attacks logged, +(\d+) crossed`, report.PerVantage[1].Crossed},
		{"missing lines", `(?s)missing at tier1.*\n(\d+) of \d+ attacks are visible at one vantage`, report.Disagreements},
	} {
		got := regexp.MustCompile(want.pattern).FindStringSubmatch(out)
		if got == nil {
			t.Errorf("%s: output has no match for %q", want.what, want.pattern)
		} else if n, _ := strconv.Atoi(got[1]); n != want.value {
			t.Errorf("%s: printed %d, the library says %d", want.what, n, want.value)
		}
	}
	if t.Failed() {
		fmt.Fprintln(os.Stderr, out)
	}
}
