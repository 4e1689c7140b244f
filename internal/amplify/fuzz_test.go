package amplify

import (
	"testing"

	"booterscope/internal/netutil"
)

func FuzzDecodeDNS(f *testing.F) {
	r := netutil.NewRand(1)
	d := dnsAny{Domain: "example.com"}
	f.Add(d.BuildRequest(r))
	f.Add(d.BuildResponses(r, d.BuildRequest(r))[0])
	f.Add([]byte{})
	f.Add(make([]byte, 12))
	// A message with a compression pointer loop.
	f.Add([]byte{0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0xc0, 12, 0, 1, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeDNS(data)
		if err != nil {
			return
		}
		// Decoded messages re-encode without panicking, and the
		// re-encoded form decodes to the same header.
		re := m.encode()
		m2, err := decodeDNS(re)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if m2.ID != m.ID || len(m2.Answers) != len(m.Answers) {
			t.Fatalf("round trip changed message: %d answers -> %d", len(m.Answers), len(m2.Answers))
		}
	})
}

func FuzzDecodeCLDAPRequest(f *testing.F) {
	r := netutil.NewRand(1)
	f.Add(cldapSearch{}.BuildRequest(r))
	f.Add([]byte{})
	f.Add([]byte{0x30, 0x84})
	f.Fuzz(func(t *testing.T, data []byte) {
		info, err := decodeCLDAPRequest(data)
		if err != nil {
			return
		}
		if info.MessageID < 0 {
			t.Fatal("negative message id")
		}
	})
}
